// Package view implements Rapid's membership view and its K-ring expander
// monitoring topology (§4.1 of the paper). A view is a configuration: a set
// of member endpoints plus a configuration identifier. The same membership
// set always produces the same K rings on every process, so each process can
// locally determine its observers and subjects without communication.
//
// The topology is built from K pseudo-random rings: ring r orders all members
// by a per-ring hash of their address. A pair (o, s) is an observer/subject
// edge if o immediately precedes s in some ring. Every process therefore has
// K observers and K subjects, and the union of the rings is (with high
// probability) a good expander — the property §8 of the paper relies on.
//
// Hot-path design: each member's K ring hashes are computed exactly once, at
// insert time, and every member record carries its current index in each ring.
// Topology queries (ObserversOf, SubjectsOf, RingNumbers) are therefore O(K)
// array lookups with no hashing and no searching, and bulk construction
// (NewWithMembers) hashes each address K times and sorts each ring once —
// O(K·N log N) — instead of performing N repeated sorted insertions.
//
// One membership per configuration: the view also keeps its members in
// address order, and builds the sorted member list, the sorted address list
// and the configuration identifier together, in one pass, the first time
// any of them is read after a change. Every reader of that configuration
// shares the same immutable slices (see Members).
package view

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/node"
	"repro/internal/remoting"
)

// Errors returned by view mutations and queries.
var (
	// ErrNodeAlreadyInRing indicates an endpoint address is already a member.
	ErrNodeAlreadyInRing = errors.New("view: node already in ring")
	// ErrNodeNotInRing indicates the endpoint address is not a member.
	ErrNodeNotInRing = errors.New("view: node not in ring")
	// ErrUUIDAlreadyInRing indicates the logical identifier was already used
	// in this view; the joiner must retry with a fresh identifier.
	ErrUUIDAlreadyInRing = errors.New("view: UUID already in ring")
)

// memberRec is the internal record for one member. hashes is immutable after
// construction (and therefore shared with clones); pos tracks the member's
// current index in each ring and is updated by ring mutations.
type memberRec struct {
	ep     node.Endpoint
	hashes []uint64 // per-ring ordering hash, computed once at insert time
	pos    []int    // current index of this member in each ring
}

// View is a configuration: a membership set arranged into K rings. All methods
// are safe for concurrent use.
type View struct {
	k int

	mu     sync.RWMutex
	rings  [][]*memberRec
	byAddr map[node.Addr]*memberRec
	// sorted orders the members by address. Like the rings it is updated in
	// place by each mutation, so building a configuration never sorts.
	sorted  []*memberRec
	seenIDs map[node.ID]bool
	// config caches the current configuration's sorted membership and
	// identifier; nil after every membership change until the next reader
	// rebuilds it.
	config *configuration
}

// configuration is the sorted membership of one configuration and its
// identifier, built together in one pass at most once per configuration.
// Its slices are shared with every caller (the engine, the broadcaster, the
// published snapshot, join responses and subscribers) and are never written
// after construction: a membership change builds a new configuration.
type configuration struct {
	members []node.Endpoint // sorted by address
	addrs   []node.Addr     // members' addresses, same order
	id      uint64
}

// New creates an empty view with k rings. k must be at least 1; the paper
// uses K=10.
func New(k int) *View {
	if k < 1 {
		panic("view: k must be >= 1")
	}
	return &View{
		k:       k,
		rings:   make([][]*memberRec, k),
		byAddr:  make(map[node.Addr]*memberRec),
		seenIDs: make(map[node.ID]bool),
	}
}

// NewWithMembers creates a view with k rings containing the given members.
// Duplicate addresses and identifiers are ignored silently: initial member
// lists may repeat seeds. Construction hashes each member once per ring and
// sorts each ring once, which is far cheaper than repeated AddMember calls.
func NewWithMembers(k int, members []node.Endpoint) *View {
	v := New(k)
	recs := make([]*memberRec, 0, len(members))
	// Block-allocate the records and their hash/position arrays: one backing
	// array each instead of three allocations per member.
	recBlock := make([]memberRec, len(members))
	hashBlock := make([]uint64, len(members)*k)
	posBlock := make([]int, len(members)*k)
	for _, ep := range members {
		if _, ok := v.byAddr[ep.Addr]; ok {
			continue
		}
		if v.seenIDs[ep.ID] {
			continue
		}
		i := len(recs)
		rec := &recBlock[i]
		rec.ep = ep
		rec.hashes = hashBlock[i*k : (i+1)*k : (i+1)*k]
		rec.pos = posBlock[i*k : (i+1)*k : (i+1)*k]
		fillRingHashes(rec.hashes, ep.Addr)
		v.byAddr[ep.Addr] = rec
		v.seenIDs[ep.ID] = true
		recs = append(recs, rec)
	}
	// Sort (hash, rec) pairs rather than *memberRec directly: comparisons stay
	// on a contiguous value slice instead of chasing pointers.
	type ringKey struct {
		hash uint64
		rec  *memberRec
	}
	keys := make([]ringKey, len(recs))
	ringBlock := make([]*memberRec, len(recs)*k)
	for r := 0; r < k; r++ {
		for i, rec := range recs {
			keys[i] = ringKey{hash: rec.hashes[r], rec: rec}
		}
		slices.SortFunc(keys, func(a, b ringKey) int {
			if a.hash != b.hash {
				if a.hash < b.hash {
					return -1
				}
				return 1
			}
			return strings.Compare(string(a.rec.ep.Addr), string(b.rec.ep.Addr))
		})
		ring := ringBlock[r*len(recs) : (r+1)*len(recs) : (r+1)*len(recs)]
		for i, key := range keys {
			ring[i] = key.rec
			key.rec.pos[r] = i
		}
		v.rings[r] = ring
	}
	slices.SortFunc(recs, func(a, b *memberRec) int {
		return strings.Compare(string(a.ep.Addr), string(b.ep.Addr))
	})
	v.sorted = recs
	return v
}

// K returns the number of rings (observers per subject).
func (v *View) K() int { return v.k }

// Size returns the number of members in the view.
func (v *View) Size() int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return len(v.byAddr)
}

// Contains reports whether addr is a member of the view.
func (v *View) Contains(addr node.Addr) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.byAddr[addr]
	return ok
}

// ContainsID reports whether the logical identifier has been seen in this view.
func (v *View) ContainsID(id node.ID) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.seenIDs[id]
}

// Member returns the endpoint registered for addr.
func (v *View) Member(addr node.Addr) (node.Endpoint, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec, ok := v.byAddr[addr]
	if !ok {
		return node.Endpoint{}, false
	}
	return rec.ep, true
}

// Members returns all member endpoints sorted by address. The slice is shared
// by every caller until the next membership change and must not be modified.
func (v *View) Members() []node.Endpoint { return v.current().members }

// MemberAddrs returns all member addresses sorted lexicographically. The
// slice is shared by every caller until the next membership change and must
// not be modified.
func (v *View) MemberAddrs() []node.Addr { return v.current().addrs }

// ConfigurationID returns a 64-bit identifier of this configuration: a hash
// over the sorted (address, identifier) pairs of the membership set. Two
// processes with identical views compute identical identifiers.
func (v *View) ConfigurationID() uint64 { return v.current().id }

// current returns the cached configuration, building it on the first call
// after a membership change. The common case takes only the read lock, so
// concurrent readers are not serialized; the write lock is taken only to
// rebuild (double-checked).
func (v *View) current() *configuration {
	v.mu.RLock()
	cfg := v.config
	v.mu.RUnlock()
	if cfg != nil {
		return cfg
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.config == nil {
		v.config = buildConfiguration(v.sorted)
	}
	return v.config
}

// buildConfiguration derives the member list, the address list and the
// configuration identifier from the address-ordered members in one pass.
func buildConfiguration(sorted []*memberRec) *configuration {
	members := make([]node.Endpoint, len(sorted))
	addrs := make([]node.Addr, len(sorted))
	h := uint64(fnvOffset)
	for i, rec := range sorted {
		ep := rec.ep
		members[i] = ep
		addrs[i] = ep.Addr
		for j := 0; j < len(ep.Addr); j++ {
			h = (h ^ uint64(ep.Addr[j])) * fnvPrime
		}
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(ep.ID.High>>(8*j)))) * fnvPrime
		}
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(ep.ID.Low>>(8*j)))) * fnvPrime
		}
	}
	return &configuration{members: members, addrs: addrs, id: h}
}

// fnvOffset and fnvPrime are the FNV-1a 64-bit parameters.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// ringHash orders members within ring r. FNV-1a over the ring index and the
// address, followed by a 64-bit avalanche finalizer (the murmur3 fmix64
// routine), gives every ring an effectively independent pseudo-random
// permutation that every process computes identically. The finalizer matters:
// without it, orderings of nearby ring indices are correlated and the union
// of the rings is a much weaker expander.
//
// The hash is inlined (no hash.Hash64 allocation) and each member's K hashes
// are computed exactly once, at insert time; comparisons never hash.
func ringHash(addr node.Addr, ring int) uint64 {
	h := uint64(fnvOffset)
	h = (h ^ uint64(byte(ring))) * fnvPrime
	h = (h ^ uint64(byte(ring>>8))) * fnvPrime
	h = (h ^ uint64(byte(ring>>16))) * fnvPrime
	h = (h ^ uint64(byte(ring>>24))) * fnvPrime
	for i := 0; i < len(addr); i++ {
		h = (h ^ uint64(addr[i])) * fnvPrime
	}
	return fmix64(h)
}

// fillRingHashes computes the per-ring hashes of addr into dst (len K).
func fillRingHashes(dst []uint64, addr node.Addr) {
	for r := range dst {
		dst[r] = ringHash(addr, r)
	}
}

// fmix64 is the murmur3 64-bit finalizer: a cheap bijective avalanche mix.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// searchRing returns the insertion index in ring (sorted for ring r) for a
// member with the given hash and address: the first index whose entry does not
// order strictly before (hash, addr). The address is the tie-breaker so the
// order is total even under hash collisions.
func searchRing(ring []*memberRec, r int, hash uint64, addr node.Addr) int {
	lo, hi := 0, len(ring)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		e := ring[mid]
		if e.hashes[r] < hash || (e.hashes[r] == hash && e.ep.Addr < addr) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// sortedIndex returns the index of addr in v.sorted, or where it would be
// inserted. Must be called with the lock held.
func (v *View) sortedIndex(addr node.Addr) int {
	i, _ := slices.BinarySearchFunc(v.sorted, addr, func(rec *memberRec, a node.Addr) int {
		return strings.Compare(string(rec.ep.Addr), string(a))
	})
	return i
}

// AddMember inserts an endpoint into every ring. It fails if the address or
// the logical identifier is already present.
func (v *View) AddMember(ep node.Endpoint) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if _, ok := v.byAddr[ep.Addr]; ok {
		return ErrNodeAlreadyInRing
	}
	if v.seenIDs[ep.ID] {
		return ErrUUIDAlreadyInRing
	}
	rec := &memberRec{
		ep:     ep,
		hashes: make([]uint64, v.k),
		pos:    make([]int, v.k),
	}
	fillRingHashes(rec.hashes, ep.Addr)
	v.byAddr[ep.Addr] = rec
	v.seenIDs[ep.ID] = true
	v.sorted = slices.Insert(v.sorted, v.sortedIndex(ep.Addr), rec)
	for r := 0; r < v.k; r++ {
		ring := v.rings[r]
		idx := searchRing(ring, r, rec.hashes[r], ep.Addr)
		ring = append(ring, nil)
		copy(ring[idx+1:], ring[idx:])
		ring[idx] = rec
		rec.pos[r] = idx
		for i := idx + 1; i < len(ring); i++ {
			ring[i].pos[r]++
		}
		v.rings[r] = ring
	}
	v.config = nil
	return nil
}

// RemoveMember removes the endpoint with the given address from every ring.
// The position index makes each ring removal a direct O(1) lookup plus the
// unavoidable shift, with no searching.
func (v *View) RemoveMember(addr node.Addr) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	rec, ok := v.byAddr[addr]
	if !ok {
		return ErrNodeNotInRing
	}
	delete(v.byAddr, addr)
	i := v.sortedIndex(addr)
	v.sorted = slices.Delete(v.sorted, i, i+1)
	for r := 0; r < v.k; r++ {
		ring := v.rings[r]
		idx := rec.pos[r]
		copy(ring[idx:], ring[idx+1:])
		ring[len(ring)-1] = nil
		ring = ring[:len(ring)-1]
		for i := idx; i < len(ring); i++ {
			ring[i].pos[r]--
		}
		v.rings[r] = ring
	}
	// Note: the logical ID stays in seenIDs; a process that rejoins must use
	// a new identifier, as required by §3.
	v.config = nil
	return nil
}

// ObserversOf returns the K processes that monitor addr: the predecessor of
// addr in each ring. With fewer than two members there are no observers.
func (v *View) ObserversOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	return v.neighboursLocked(rec, -1), nil
}

// SubjectsOf returns the K processes that addr monitors: the successor of
// addr in each ring.
func (v *View) SubjectsOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	return v.neighboursLocked(rec, +1), nil
}

// UniqueSubjectsOf returns the distinct subjects of addr, excluding addr
// itself: the set of processes addr must run an edge failure detector
// against. Ring multiplicity is irrelevant to monitoring, so callers that
// start one monitor per subject want this rather than SubjectsOf.
func (v *View) UniqueSubjectsOf(addr node.Addr) ([]node.Addr, error) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	rec, ok := v.byAddr[addr]
	if !ok {
		return nil, ErrNodeNotInRing
	}
	subs := v.neighboursLocked(rec, +1)
	out := subs[:0]
	for _, s := range subs {
		if s == addr {
			continue
		}
		dup := false
		for _, seen := range out {
			if seen == s {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, s)
		}
	}
	return out, nil
}

// neighboursLocked returns the ring neighbour of rec in each ring in ring
// order; direction -1 selects predecessors (observers), +1 successors
// (subjects). Must be called with the lock held.
func (v *View) neighboursLocked(rec *memberRec, direction int) []node.Addr {
	out := make([]node.Addr, 0, v.k)
	if len(v.byAddr) <= 1 {
		return out
	}
	for r := 0; r < v.k; r++ {
		ring := v.rings[r]
		n := len(ring)
		out = append(out, ring[((rec.pos[r]+direction)%n+n)%n].ep.Addr)
	}
	return out
}

// ExpectedObserversOf returns the processes that would observe addr if it
// were a member: the predecessors of addr's would-be position in each ring.
// A joining process contacts these as its temporary observers (§4.1).
func (v *View) ExpectedObserversOf(addr node.Addr) []node.Addr {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]node.Addr, 0, v.k)
	if len(v.byAddr) == 0 {
		return out
	}
	for r := 0; r < v.k; r++ {
		ring := v.rings[r]
		if len(ring) == 0 {
			continue
		}
		idx := searchRing(ring, r, ringHash(addr, r), addr)
		n := len(ring)
		out = append(out, ring[((idx-1)%n+n)%n].ep.Addr)
	}
	return out
}

// RingNumbers returns the ring indices in which observer immediately precedes
// subject, i.e. the rings on which an alert from observer about subject is
// valid. For a subject not in the view (a joiner) the would-be position is
// used, matching ExpectedObserversOf.
func (v *View) RingNumbers(observer, subject node.Addr) []int {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var out []int
	if rec, ok := v.byAddr[subject]; ok {
		if len(v.byAddr) <= 1 {
			return out
		}
		for r := 0; r < v.k; r++ {
			ring := v.rings[r]
			n := len(ring)
			if ring[((rec.pos[r]-1)%n+n)%n].ep.Addr == observer {
				out = append(out, r)
			}
		}
		return out
	}
	// Joiner case: locate the would-be position by binary search, hashing the
	// probe address once per ring.
	for r := 0; r < v.k; r++ {
		ring := v.rings[r]
		if len(ring) == 0 {
			continue
		}
		idx := searchRing(ring, r, ringHash(subject, r), subject)
		n := len(ring)
		if ring[((idx-1)%n+n)%n].ep.Addr == observer {
			out = append(out, r)
		}
	}
	return out
}

// IsSafeToJoin classifies a join attempt against the current view.
func (v *View) IsSafeToJoin(addr node.Addr, id node.ID) remoting.JoinStatus {
	v.mu.RLock()
	defer v.mu.RUnlock()
	if _, ok := v.byAddr[addr]; ok {
		return remoting.JoinHostAlreadyInRing
	}
	if v.seenIDs[id] {
		return remoting.JoinUUIDAlreadyInRing
	}
	return remoting.JoinSafeToJoin
}

// Clone returns a deep copy of the view (used when handing a snapshot to a
// new configuration or to application callbacks).
func (v *View) Clone() *View {
	v.mu.RLock()
	defer v.mu.RUnlock()
	clone := New(v.k)
	for a, rec := range v.byAddr {
		// The hash slice is immutable after construction and safely shared;
		// positions are mutable per-view state and must be copied.
		clone.byAddr[a] = &memberRec{
			ep:     rec.ep,
			hashes: rec.hashes,
			pos:    append([]int(nil), rec.pos...),
		}
	}
	for id := range v.seenIDs {
		clone.seenIDs[id] = true
	}
	for r := 0; r < v.k; r++ {
		ring := make([]*memberRec, len(v.rings[r]))
		for i, rec := range v.rings[r] {
			ring[i] = clone.byAddr[rec.ep.Addr]
		}
		clone.rings[r] = ring
	}
	clone.sorted = make([]*memberRec, len(v.sorted))
	for i, rec := range v.sorted {
		clone.sorted[i] = clone.byAddr[rec.ep.Addr]
	}
	// The cached configuration is immutable, so the clone shares it until
	// either view changes.
	clone.config = v.config
	return clone
}

// Ring returns a copy of ring r, primarily for the expander analysis in
// package graph and for tests.
func (v *View) Ring(r int) ([]node.Endpoint, error) {
	if r < 0 || r >= v.k {
		return nil, fmt.Errorf("view: ring %d out of range [0,%d)", r, v.k)
	}
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]node.Endpoint, len(v.rings[r]))
	for i, rec := range v.rings[r] {
		out[i] = rec.ep
	}
	return out, nil
}
