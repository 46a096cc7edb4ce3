// Package node defines process identities used throughout the membership
// service: network endpoints (host:port addresses) and 128-bit logical node
// identifiers. A process that leaves and rejoins the cluster does so with a
// fresh logical identifier, exactly as described in §3 of the Rapid paper.
package node

import (
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
)

// Addr is a process' listen address in "host:port" form. It identifies where
// a process can be reached; it is not a logical identity.
type Addr string

// String returns the address as a plain string.
func (a Addr) String() string { return string(a) }

// ID is a 128-bit logical identifier assigned to a process each time it joins
// a cluster. IDs are compared lexicographically on (High, Low).
type ID struct {
	High uint64
	Low  uint64
}

// String renders the ID in a compact UUID-like hexadecimal form: both halves
// as 16 zero-padded lowercase hex digits, joined by '-'.
func (id ID) String() string {
	var buf [idTextLen]byte
	return string(id.Append(buf[:0]))
}

// idTextLen is the length of an ID's String form.
const idTextLen = 16 + 1 + 16

// Append appends the String form of id to dst and returns the extended
// buffer, so callers building composite keys need no intermediate string.
func (id ID) Append(dst []byte) []byte {
	dst = appendHex16(dst, id.High)
	dst = append(dst, '-')
	return appendHex16(dst, id.Low)
}

// appendHex16 appends x as 16 zero-padded lowercase hex digits.
func appendHex16(dst []byte, x uint64) []byte {
	const digits = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, digits[(x>>uint(shift))&0xf])
	}
	return dst
}

// IsZero reports whether the ID is the zero value (no identity assigned).
func (id ID) IsZero() bool { return id.High == 0 && id.Low == 0 }

// Compare returns -1, 0 or +1 ordering IDs lexicographically on (High, Low).
func (id ID) Compare(other ID) int {
	switch {
	case id.High < other.High:
		return -1
	case id.High > other.High:
		return 1
	case id.Low < other.Low:
		return -1
	case id.Low > other.Low:
		return 1
	default:
		return 0
	}
}

// idRand is the process-wide source for NewID. Guarded by idMu so that IDs
// can be generated concurrently from many simulated nodes.
var (
	idMu   sync.Mutex
	idRand = rand.New(rand.NewSource(0x5eed_1e57_c0ffee))
)

// SeedIDGenerator reseeds the process-wide ID generator. Tests and
// deterministic simulations use this to obtain reproducible identities.
func SeedIDGenerator(seed int64) {
	idMu.Lock()
	defer idMu.Unlock()
	idRand = rand.New(rand.NewSource(seed))
}

// SeedIDGeneratorFromEntropy reseeds the process-wide ID generator from the
// operating system's entropy source. Real deployments (cmd/rapid-node) must
// call this before joining: the library default is a fixed seed so that
// simulations are reproducible, which means two separate OS processes would
// otherwise draw the same identifier sequence and collide at the pre-join
// UUID check forever.
func SeedIDGeneratorFromEntropy() error {
	var b [8]byte
	if _, err := crand.Read(b[:]); err != nil {
		return fmt.Errorf("node: reading entropy for ID generator: %w", err)
	}
	SeedIDGenerator(int64(binary.BigEndian.Uint64(b[:])))
	return nil
}

// NewID returns a fresh pseudo-random logical identifier.
func NewID() ID {
	idMu.Lock()
	defer idMu.Unlock()
	return ID{High: idRand.Uint64(), Low: idRand.Uint64()}
}

// NewIDFromRand returns an ID drawn from the supplied source. It is used by
// simulations that manage their own deterministic randomness.
func NewIDFromRand(r *rand.Rand) ID {
	return ID{High: r.Uint64(), Low: r.Uint64()}
}

// Endpoint is a member of the cluster: an address plus the logical ID under
// which it joined and optional application-supplied metadata (for example
// {"role": "backend"}).
type Endpoint struct {
	Addr     Addr
	ID       ID
	Metadata map[string]string
}

// NewEndpoint builds an endpoint with a freshly generated ID.
func NewEndpoint(addr Addr) Endpoint {
	return Endpoint{Addr: addr, ID: NewID()}
}

// WithMetadata returns a copy of the endpoint carrying the given metadata.
func (e Endpoint) WithMetadata(md map[string]string) Endpoint {
	copied := make(map[string]string, len(md))
	for k, v := range md {
		copied[k] = v
	}
	e.Metadata = copied
	return e
}

// String renders the endpoint address and a short ID prefix.
func (e Endpoint) String() string {
	return fmt.Sprintf("%s/%s", e.Addr, e.ID)
}

// Equal reports whether two endpoints denote the same process instance
// (same address and same logical ID). Metadata is not part of identity.
func (e Endpoint) Equal(other Endpoint) bool {
	return e.Addr == other.Addr && e.ID == other.ID
}

// EndpointAddrs returns the addresses of the given endpoints, in order —
// the conversion every membership consumer needs when feeding a view-change
// payload into an address-keyed application.
func EndpointAddrs(endpoints []Endpoint) []Addr {
	addrs := make([]Addr, len(endpoints))
	for i, ep := range endpoints {
		addrs[i] = ep.Addr
	}
	return addrs
}

// SortAddrs sorts a slice of addresses lexicographically in place and
// returns it, for deterministic iteration in protocols and tests.
func SortAddrs(addrs []Addr) []Addr {
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	return addrs
}

// AddrList renders a list of addresses as a comma-joined string, useful for
// logging proposals and view changes.
func AddrList(addrs []Addr) string {
	parts := make([]string, len(addrs))
	for i, a := range addrs {
		parts[i] = string(a)
	}
	return strings.Join(parts, ",")
}
