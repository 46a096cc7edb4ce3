// Package fastpaxos implements Rapid's leaderless view-change consensus
// (§4.3): a Fast Paxos fast path in which every process broadcasts a vote for
// the multi-process cut it detected, and any process that observes a fast
// quorum (at least N − ⌊(N−1)/4⌋ processes, i.e. roughly three quarters of
// the membership) of identical votes decides without further communication.
// If votes conflict or too few arrive, a randomized fallback timer starts a
// classical Paxos recovery round (package paxos).
package fastpaxos

import (
	"math/rand"
	"slices"
	"strings"
	"sync"

	"repro/internal/node"
	"repro/internal/paxos"
	"repro/internal/remoting"
)

// Config carries the static parameters of one consensus instance.
type Config struct {
	// MyAddr is this process' address.
	MyAddr node.Addr
	// MyIndex is this process' index in the sorted membership.
	MyIndex int
	// MembershipSize is N.
	MembershipSize int
	// ConfigurationID stamps all messages.
	ConfigurationID uint64
	// Client sends direct messages (used by the recovery path).
	Client paxos.Sender
	// Broadcaster sends votes and recovery messages to the membership.
	Broadcaster paxos.Broadcaster
	// VoteSink, when non-nil, receives this process' fast-round vote instead
	// of it being broadcast immediately. The membership service uses this to
	// coalesce votes with alerts into one batched wire message per window
	// (§6); the recovery path always uses Broadcaster directly.
	VoteSink func(*remoting.FastRoundPhase2b)
	// OnDecide is invoked exactly once with the decided proposal.
	OnDecide func([]node.Endpoint)
}

// FastPaxos is one consensus instance. All methods are safe for concurrent use.
type FastPaxos struct {
	cfg    Config
	inner  *paxos.Paxos
	quorum int

	mu            sync.Mutex
	decided       bool
	votesReceived map[node.Addr]bool
	// votesPerValue groups fast-round votes by proposal, keyed by
	// hashProposal; each bucket chains the distinct proposals that share a
	// hash, so a collision can never merge two proposals.
	votesPerValue map[uint64]*tally
	proposed      bool
}

// tally counts the votes for one proposal.
type tally struct {
	count int
	value []node.Endpoint // the first vote's proposal, copied
	next  *tally          // a different proposal with the same hash
}

// hashProposal is proposalHash; tests replace it to force collisions.
var hashProposal = proposalHash

// FNV-1a 64-bit parameters for hashing endpoint addresses.
const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

// proposalHash is an order-insensitive hash of a proposal's (Addr, ID)
// multiset: the wrapping sum of one well-mixed hash per endpoint. Metadata is
// not part of a proposal's identity, so proposals that differ only in it
// share a tally, as they did when votes were grouped by paxos.Key.
func proposalHash(p []node.Endpoint) uint64 {
	sum := uint64(len(p))
	for _, ep := range p {
		h := uint64(fnvOffset)
		for i := 0; i < len(ep.Addr); i++ {
			h = (h ^ uint64(ep.Addr[i])) * fnvPrime
		}
		sum += fmix64(fmix64(h^ep.ID.High) ^ ep.ID.Low)
	}
	return sum
}

// fmix64 is the murmur3 64-bit finalizer.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// sameProposal reports whether a and b hold the same (Addr, ID) multiset.
// Voters that detected the same cut send it in the same sorted order, so the
// element-wise scan is the common case and allocates nothing; only
// differently ordered proposals pay for sorted copies.
func sameProposal(a, b []node.Endpoint) bool {
	if len(a) != len(b) {
		return false
	}
	i := 0
	for i < len(a) && a[i].Equal(b[i]) {
		i++
	}
	if i == len(a) {
		return true
	}
	a, b = slices.Clone(a[i:]), slices.Clone(b[i:])
	slices.SortFunc(a, compareEndpoints)
	slices.SortFunc(b, compareEndpoints)
	return slices.EqualFunc(a, b, node.Endpoint.Equal)
}

// compareEndpoints orders endpoints by address, then by logical ID.
func compareEndpoints(a, b node.Endpoint) int {
	if c := strings.Compare(string(a.Addr), string(b.Addr)); c != 0 {
		return c
	}
	return a.ID.Compare(b.ID)
}

// FastQuorumSize returns the number of identical votes needed for the fast
// path with n processes: n − ⌊(n−1)/4⌋.
func FastQuorumSize(n int) int {
	if n <= 0 {
		return 1
	}
	return n - (n-1)/4
}

// New creates a consensus instance for one configuration.
func New(cfg Config) *FastPaxos {
	f := &FastPaxos{
		cfg:           cfg,
		quorum:        FastQuorumSize(cfg.MembershipSize),
		votesPerValue: make(map[uint64]*tally),
	}
	f.inner = paxos.New(paxos.Config{
		MyAddr:          cfg.MyAddr,
		MyIndex:         cfg.MyIndex,
		MembershipSize:  cfg.MembershipSize,
		ConfigurationID: cfg.ConfigurationID,
		Client:          cfg.Client,
		Broadcaster:     cfg.Broadcaster,
		OnDecide:        f.decide,
	})
	return f
}

// Propose casts this process' vote for the given cut-detection proposal: the
// vote is registered with the recovery path (for safety) and broadcast to the
// membership as a fast-round phase 2b message.
func (f *FastPaxos) Propose(proposal []node.Endpoint) {
	f.mu.Lock()
	if f.decided || f.proposed {
		f.mu.Unlock()
		return
	}
	f.proposed = true
	f.mu.Unlock()

	f.inner.RegisterFastRoundVote(proposal)
	vote := &remoting.FastRoundPhase2b{
		Sender:          f.cfg.MyAddr,
		ConfigurationID: f.cfg.ConfigurationID,
		Proposal:        proposal,
	}
	if f.cfg.VoteSink != nil {
		f.cfg.VoteSink(vote)
		return
	}
	f.cfg.Broadcaster.Broadcast(&remoting.Request{FastRound: vote})
}

// HasProposed reports whether this process already cast its fast-round vote.
func (f *FastPaxos) HasProposed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.proposed
}

// Decided reports whether the instance reached a decision.
func (f *FastPaxos) Decided() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.decided
}

// HandleFastRoundVote counts one fast-round vote. A fast quorum of identical
// votes decides immediately. Votes are identical when their proposals hold
// the same (Addr, ID) multiset; counting a vote for an already-tallied
// proposal allocates nothing.
func (f *FastPaxos) HandleFastRoundVote(msg *remoting.FastRoundPhase2b) {
	if msg.ConfigurationID != f.cfg.ConfigurationID {
		return
	}
	f.mu.Lock()
	if f.decided || f.votesReceived[msg.Sender] {
		f.mu.Unlock()
		return
	}
	if f.votesReceived == nil {
		// Sized for the whole membership at the first vote, so counting
		// never regrows it, while an instance that gets no votes holds none.
		f.votesReceived = make(map[node.Addr]bool, f.cfg.MembershipSize)
	}
	f.votesReceived[msg.Sender] = true
	h := hashProposal(msg.Proposal)
	head := f.votesPerValue[h]
	t := head
	for t != nil && !sameProposal(t.value, msg.Proposal) {
		t = t.next
	}
	if t == nil {
		t = &tally{value: append([]node.Endpoint(nil), msg.Proposal...), next: head}
		f.votesPerValue[h] = t
	}
	t.count++
	if t.count < f.quorum {
		f.mu.Unlock()
		return
	}
	value := t.value
	f.mu.Unlock()
	f.decide(value)
}

// VotesForLeadingProposal returns the highest vote count observed so far and
// the total number of votes received (for diagnostics and experiments).
func (f *FastPaxos) VotesForLeadingProposal() (leading, total int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, head := range f.votesPerValue {
		for t := head; t != nil; t = t.next {
			leading = max(leading, t.count)
		}
	}
	return leading, len(f.votesReceived)
}

// StartClassicalRound begins the Paxos recovery path if no decision has been
// reached. The membership service calls this from its fallback timer.
func (f *FastPaxos) StartClassicalRound() {
	f.mu.Lock()
	if f.decided {
		f.mu.Unlock()
		return
	}
	f.mu.Unlock()
	f.inner.StartPhase1a(2)
}

// HandlePhase1a routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase1a(msg *remoting.Phase1a) { f.inner.HandlePhase1a(msg) }

// HandlePhase1b routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase1b(msg *remoting.Phase1b) { f.inner.HandlePhase1b(msg) }

// HandlePhase2a routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase2a(msg *remoting.Phase2a) { f.inner.HandlePhase2a(msg) }

// HandlePhase2b routes a recovery message to the inner Paxos instance.
func (f *FastPaxos) HandlePhase2b(msg *remoting.Phase2b) { f.inner.HandlePhase2b(msg) }

// decide is the single decision funnel shared by the fast and recovery paths:
// it surfaces the decision to the membership service exactly once.
func (f *FastPaxos) decide(value []node.Endpoint) {
	f.mu.Lock()
	if f.decided {
		f.mu.Unlock()
		return
	}
	f.decided = true
	onDecide := f.cfg.OnDecide
	f.mu.Unlock()
	if onDecide != nil {
		onDecide(value)
	}
}

// RandomFallbackJitter returns a deterministic-per-node jitter multiplier in
// [0, n) used to stagger fallback timers so that a single coordinator usually
// emerges. Exposed here so that the membership service and tests share the
// same policy.
func RandomFallbackJitter(seed int64, n int) int {
	if n <= 1 {
		return 0
	}
	return rand.New(rand.NewSource(seed)).Intn(n)
}
