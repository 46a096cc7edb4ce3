package fastpaxos

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/node"
	"repro/internal/paxos"
	"repro/internal/remoting"
)

// refTally is the reference vote counter: votes grouped by paxos.Key, the
// fast path's original grouping.
type refTally struct {
	quorum   int
	voted    map[node.Addr]bool
	counts   map[string]int
	decided  string
	isDecide bool
}

func (r *refTally) vote(sender node.Addr, p []node.Endpoint) {
	if r.isDecide || r.voted[sender] {
		return
	}
	r.voted[sender] = true
	k := paxos.Key(p)
	r.counts[k]++
	if r.counts[k] >= r.quorum {
		r.decided, r.isDecide = k, true
	}
}

func (r *refTally) leading() int {
	best := 0
	for _, c := range r.counts {
		best = max(best, c)
	}
	return best
}

// permuted returns a shuffled copy of p whose endpoints carry random
// metadata: neither order nor metadata is part of a proposal's identity.
func permuted(r *rand.Rand, p []node.Endpoint) []node.Endpoint {
	out := append([]node.Endpoint(nil), p...)
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		if r.Intn(2) == 0 {
			out[i].Metadata = map[string]string{"role": fmt.Sprint(r.Intn(3))}
		}
	}
	return out
}

// TestVoteTallyMatchesKeyGrouping feeds random vote sequences to a FastPaxos
// instance and to the reference counter, and requires the same decision at
// the same vote and the same leading count after every vote. Proposals are
// drawn from a small endpoint pool so that permutations, duplicate endpoints
// and near-identical proposals are common; half the trials force every
// proposal into one hash bucket.
func TestVoteTallyMatchesKeyGrouping(t *testing.T) {
	t.Cleanup(func() { hashProposal = proposalHash })
	r := rand.New(rand.NewSource(11))
	pool := make([]node.Endpoint, 6)
	for i := range pool {
		pool[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("10.0.0.%d:1", i%4)), ID: node.ID{High: uint64(i % 3), Low: uint64(i)}}
	}
	for trial := 0; trial < 400; trial++ {
		if trial%2 == 1 {
			hashProposal = func([]node.Endpoint) uint64 { return 42 }
		} else {
			hashProposal = proposalHash
		}
		n := 4 + r.Intn(30)
		bases := make([][]node.Endpoint, 1+r.Intn(4))
		for i := range bases {
			p := make([]node.Endpoint, 1+r.Intn(4))
			for j := range p {
				p[j] = pool[r.Intn(len(pool))]
			}
			bases[i] = p
		}
		var decided []node.Endpoint
		f := New(Config{
			MyAddr:          "self:1",
			MembershipSize:  n,
			ConfigurationID: 1,
			OnDecide:        func(v []node.Endpoint) { decided = v },
		})
		ref := &refTally{quorum: FastQuorumSize(n), voted: map[node.Addr]bool{}, counts: map[string]int{}}
		for v := 0; v < 2*n; v++ {
			// Senders repeat sometimes: a second vote from a sender is ignored.
			sender := node.Addr(fmt.Sprintf("s%d:1", r.Intn(n+n/4)))
			p := permuted(r, bases[r.Intn(len(bases))])
			f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: sender, ConfigurationID: 1, Proposal: p})
			ref.vote(sender, p)
			if f.Decided() != ref.isDecide {
				t.Fatalf("trial %d vote %d: decided=%v, reference %v", trial, v, f.Decided(), ref.isDecide)
			}
			if ref.isDecide {
				if got := paxos.Key(decided); got != ref.decided {
					t.Fatalf("trial %d: decided %q, reference %q", trial, got, ref.decided)
				}
				break
			}
			if leading, total := f.VotesForLeadingProposal(); leading != ref.leading() || total != len(ref.voted) {
				t.Fatalf("trial %d vote %d: leading/total = %d/%d, reference %d/%d", trial, v, leading, total, ref.leading(), len(ref.voted))
			}
		}
	}
}

// TestHashCollisionKeepsProposalsApart forces two different proposals into
// one bucket: neither may borrow the other's votes.
func TestHashCollisionKeepsProposalsApart(t *testing.T) {
	hashProposal = func([]node.Endpoint) uint64 { return 7 }
	t.Cleanup(func() { hashProposal = proposalHash })
	const n = 8
	var decided []node.Endpoint
	f := New(Config{MyAddr: "self:1", MembershipSize: n, ConfigurationID: 1, OnDecide: func(v []node.Endpoint) { decided = v }})
	a, b := proposal("a:1"), proposal("b:1")
	for i := 0; i < n/2; i++ {
		f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: node.Addr(fmt.Sprintf("x%d:1", i)), ConfigurationID: 1, Proposal: a})
		f.HandleFastRoundVote(&remoting.FastRoundPhase2b{Sender: node.Addr(fmt.Sprintf("y%d:1", i)), ConfigurationID: 1, Proposal: b})
	}
	if leading, total := f.VotesForLeadingProposal(); leading != n/2 || total != n {
		t.Fatalf("leading/total = %d/%d, want %d/%d", leading, total, n/2, n)
	}
	if f.Decided() {
		t.Fatalf("colliding proposals were merged into a decision on %v", decided)
	}
}

// TestRepeatVoteAllocatesNothing pins the fast path's cost: counting another
// vote for a proposal that already has a tally allocates nothing.
func TestRepeatVoteAllocatesNothing(t *testing.T) {
	const n = 1000
	f := New(Config{MyAddr: "self:1", MembershipSize: n, ConfigurationID: 1})
	prop := proposal("dead-1:1", "dead-2:1", "joiner:1")
	votes := make([]remoting.FastRoundPhase2b, n)
	for i := range votes {
		votes[i] = remoting.FastRoundPhase2b{Sender: node.Addr(fmt.Sprintf("m%04d:1", i)), ConfigurationID: 1, Proposal: prop}
	}
	f.HandleFastRoundVote(&votes[0])
	i := 1
	allocs := testing.AllocsPerRun(200, func() {
		f.HandleFastRoundVote(&votes[i])
		i++
	})
	if allocs != 0 {
		t.Fatalf("a repeat vote allocates %.1f objects, want 0", allocs)
	}
	if f.Decided() {
		t.Fatal("decided below the fast quorum")
	}
}

// BenchmarkFastRoundVoteTally counts identical votes from N members until the
// fast quorum decides: the work every member does once per view change.
func BenchmarkFastRoundVoteTally(b *testing.B) {
	for _, n := range []int{200, 1000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			prop := proposal("dead-1:1", "dead-2:1")
			votes := make([]remoting.FastRoundPhase2b, n)
			for i := range votes {
				votes[i] = remoting.FastRoundPhase2b{Sender: node.Addr(fmt.Sprintf("m%04d:1", i)), ConfigurationID: 1, Proposal: prop}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for it := 0; it < b.N; it++ {
				decided := false
				f := New(Config{MyAddr: "m0000:1", MembershipSize: n, ConfigurationID: 1, OnDecide: func([]node.Endpoint) { decided = true }})
				for i := range votes {
					f.HandleFastRoundVote(&votes[i])
					if decided {
						break
					}
				}
				if !decided {
					b.Fatal("identical votes did not decide")
				}
			}
		})
	}
}
