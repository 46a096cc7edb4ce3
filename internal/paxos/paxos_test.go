package paxos

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/node"
	"repro/internal/remoting"
)

// router wires Paxos instances together with synchronous in-memory delivery.
type router struct {
	mu      sync.Mutex
	nodes   map[node.Addr]*Paxos
	blocked map[node.Addr]bool
}

func newRouter() *router {
	return &router{nodes: make(map[node.Addr]*Paxos), blocked: make(map[node.Addr]bool)}
}

func (r *router) add(addr node.Addr, p *Paxos) { r.nodes[addr] = p }

func (r *router) block(addr node.Addr) {
	r.mu.Lock()
	r.blocked[addr] = true
	r.mu.Unlock()
}

func (r *router) dispatch(to node.Addr, req *remoting.Request) {
	r.mu.Lock()
	p, ok := r.nodes[to]
	blocked := r.blocked[to]
	r.mu.Unlock()
	if !ok || blocked {
		return
	}
	switch {
	case req.P1a != nil:
		p.HandlePhase1a(req.P1a)
	case req.P1b != nil:
		p.HandlePhase1b(req.P1b)
	case req.P2a != nil:
		p.HandlePhase2a(req.P2a)
	case req.P2b != nil:
		p.HandlePhase2b(req.P2b)
	}
}

// nodeClient implements Sender and Broadcaster for one source node.
type nodeClient struct {
	r       *router
	members []node.Addr
}

func (c *nodeClient) SendBestEffort(to node.Addr, req *remoting.Request) { c.r.dispatch(to, req) }
func (c *nodeClient) Broadcast(req *remoting.Request) {
	for _, m := range c.members {
		c.r.dispatch(m, req)
	}
}

// cluster builds n wired Paxos instances and records decisions.
type cluster struct {
	router    *router
	addrs     []node.Addr
	instances map[node.Addr]*Paxos
	mu        sync.Mutex
	decisions map[node.Addr]Value
}

func newCluster(n int, configID uint64) *cluster {
	c := &cluster{
		router:    newRouter(),
		instances: make(map[node.Addr]*Paxos),
		decisions: make(map[node.Addr]Value),
	}
	for i := 0; i < n; i++ {
		c.addrs = append(c.addrs, node.Addr(fmt.Sprintf("n%02d:1", i)))
	}
	for i, addr := range c.addrs {
		addr := addr
		client := &nodeClient{r: c.router, members: c.addrs}
		p := New(Config{
			MyAddr:          addr,
			MyIndex:         i,
			MembershipSize:  n,
			ConfigurationID: configID,
			Client:          client,
			Broadcaster:     client,
			OnDecide: func(v Value) {
				c.mu.Lock()
				c.decisions[addr] = v
				c.mu.Unlock()
			},
		})
		c.router.add(addr, p)
		c.instances[addr] = p
	}
	return c
}

func (c *cluster) decisionCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.decisions)
}

func (c *cluster) uniqueDecisions() map[string]bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]bool)
	for _, v := range c.decisions {
		out[Key(v)] = true
	}
	return out
}

func valueOf(addrs ...string) Value {
	out := make(Value, len(addrs))
	for i, a := range addrs {
		out[i] = node.Endpoint{Addr: node.Addr(a), ID: node.ID{High: uint64(i + 1), Low: 7}}
	}
	return out
}

func TestKeyIsOrderInsensitive(t *testing.T) {
	v1 := valueOf("a:1", "b:1")
	v2 := Value{v1[1], v1[0]}
	if Key(v1) != Key(v2) {
		t.Error("Key must not depend on slice order")
	}
	if Key(v1) == Key(valueOf("a:1")) {
		t.Error("different proposals must have different keys")
	}
	if Key(nil) != "" {
		t.Errorf("Key(nil) = %q, want empty", Key(nil))
	}
}

// fmtKey is the original fmt-based Key, kept as the reference the faster
// implementation must match byte for byte.
func fmtKey(v Value) string {
	parts := make([]string, len(v))
	for i, ep := range v {
		parts[i] = fmt.Sprintf("%s|%s", ep.Addr, ep.ID)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// TestKeyGolden pins Key's format: the classical path breaks ties on Key
// order, so it must stay identical across versions.
func TestKeyGolden(t *testing.T) {
	v := Value{
		{Addr: "10.0.0.2:5000", ID: node.ID{High: 0x2, Low: 0xabc}},
		{Addr: "10.0.0.1:5000", ID: node.ID{High: 0x0123456789abcdef, Low: 1}},
		{Addr: "10.0.0.1:5000", ID: node.ID{High: 0x0123456789abcdef, Low: 0}},
	}
	want := "10.0.0.1:5000|0123456789abcdef-0000000000000000," +
		"10.0.0.1:5000|0123456789abcdef-0000000000000001," +
		"10.0.0.2:5000|0000000000000002-0000000000000abc"
	if got := Key(v); got != want {
		t.Errorf("Key = %q, want %q", got, want)
	}
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 500; i++ {
		v := make(Value, r.Intn(8))
		for j := range v {
			// A small address alphabet makes shared prefixes, duplicates and
			// addresses that are prefixes of one another common.
			v[j] = node.Endpoint{
				Addr: node.Addr(fmt.Sprintf("h%d:%d", r.Intn(3), r.Intn(12))),
				ID:   node.ID{High: uint64(r.Intn(3)), Low: r.Uint64() >> uint(r.Intn(64))},
			}
		}
		if got, want := Key(v), fmtKey(v); got != want {
			t.Fatalf("Key(%v) = %q, want %q", v, got, want)
		}
	}
}

func TestClassicalRoundAllDecideSameValue(t *testing.T) {
	c := newCluster(5, 1)
	proposal := valueOf("failed:1")
	for _, p := range c.instances {
		p.SetProposal(proposal)
	}
	c.instances[c.addrs[0]].StartPhase1a(2)
	if c.decisionCount() != 5 {
		t.Fatalf("decisions = %d, want 5", c.decisionCount())
	}
	uniq := c.uniqueDecisions()
	if len(uniq) != 1 || !uniq[Key(proposal)] {
		t.Fatalf("unexpected decisions: %v", uniq)
	}
}

func TestRecoveryPreservesPossiblyChosenFastRoundValue(t *testing.T) {
	// 4 of 5 nodes voted for V1 in the fast round (enough that V1 may have
	// been chosen at some learner); the recovery coordinator has its own
	// different proposal V2 but must decide V1.
	c := newCluster(5, 1)
	v1 := valueOf("crashed-a:1", "crashed-b:1")
	v2 := valueOf("something-else:1")
	for i, addr := range c.addrs {
		if i < 4 {
			c.instances[addr].RegisterFastRoundVote(v1)
		}
	}
	coordinator := c.instances[c.addrs[4]]
	coordinator.SetProposal(v2)
	coordinator.StartPhase1a(2)
	if c.decisionCount() != 5 {
		t.Fatalf("decisions = %d, want 5", c.decisionCount())
	}
	uniq := c.uniqueDecisions()
	if len(uniq) != 1 || !uniq[Key(v1)] {
		t.Fatalf("recovery chose %v, must preserve the fast-round value %q", uniq, Key(v1))
	}
}

func TestConcurrentCoordinatorsAgree(t *testing.T) {
	c := newCluster(7, 1)
	vA := valueOf("a:1")
	vB := valueOf("b:1")
	for i, addr := range c.addrs {
		if i%2 == 0 {
			c.instances[addr].SetProposal(vA)
		} else {
			c.instances[addr].SetProposal(vB)
		}
	}
	// Two coordinators race; ranks differ by node index so one wins, and
	// agreement must hold regardless.
	c.instances[c.addrs[0]].StartPhase1a(2)
	c.instances[c.addrs[1]].StartPhase1a(2)
	if c.decisionCount() == 0 {
		t.Fatal("no decisions reached")
	}
	if uniq := c.uniqueDecisions(); len(uniq) != 1 {
		t.Fatalf("conflicting decisions: %v", uniq)
	}
}

func TestDecisionRequiresMajority(t *testing.T) {
	// With 3 of 5 acceptors unreachable, no decision can be reached.
	c := newCluster(5, 1)
	for _, p := range c.instances {
		p.SetProposal(valueOf("x:1"))
	}
	c.router.block(c.addrs[2])
	c.router.block(c.addrs[3])
	c.router.block(c.addrs[4])
	c.instances[c.addrs[0]].StartPhase1a(2)
	if c.decisionCount() != 0 {
		t.Fatalf("decision reached without a majority: %d", c.decisionCount())
	}
}

func TestStaleConfigurationIgnored(t *testing.T) {
	c := newCluster(3, 1)
	p := c.instances[c.addrs[0]]
	p.HandlePhase2b(&remoting.Phase2b{Sender: "x:1", ConfigurationID: 999, Rank: remoting.Rank{Round: 2, NodeIndex: 2}, Value: valueOf("v:1")})
	p.HandlePhase2b(&remoting.Phase2b{Sender: "y:1", ConfigurationID: 999, Rank: remoting.Rank{Round: 2, NodeIndex: 2}, Value: valueOf("v:1")})
	if p.Decided() {
		t.Fatal("messages from another configuration must be ignored")
	}
}

func TestDuplicatePhase2bFromSameSenderNotCounted(t *testing.T) {
	c := newCluster(5, 1)
	p := c.instances[c.addrs[0]]
	rank := remoting.Rank{Round: 2, NodeIndex: 2}
	v := valueOf("v:1")
	for i := 0; i < 10; i++ {
		p.HandlePhase2b(&remoting.Phase2b{Sender: "same:1", ConfigurationID: 1, Rank: rank, Value: v})
	}
	if p.Decided() {
		t.Fatal("repeated phase 2b from one sender must not form a majority")
	}
}

func TestPhase1aLowerRankRejected(t *testing.T) {
	c := newCluster(3, 1)
	p := c.instances[c.addrs[0]]
	p.HandlePhase1a(&remoting.Phase1a{Sender: c.addrs[1], ConfigurationID: 1, Rank: remoting.Rank{Round: 5, NodeIndex: 3}})
	rnd1, _ := p.AcceptedValue()
	_ = rnd1
	// A lower-ranked prepare must not regress the acceptor's promise; we
	// verify by checking a subsequent phase2a at the low rank is rejected.
	p.HandlePhase2a(&remoting.Phase2a{Sender: c.addrs[2], ConfigurationID: 1, Rank: remoting.Rank{Round: 2, NodeIndex: 2}, Value: valueOf("low:1")})
	_, vval := p.AcceptedValue()
	if len(vval) != 0 {
		t.Fatalf("acceptor accepted a value at a rank below its promise: %v", vval)
	}
}

func TestAgreementUnderRandomFastRoundVotes(t *testing.T) {
	// Property: regardless of which subset of nodes cast fast-round votes for
	// which of two values and which node coordinates recovery, all decisions
	// are identical (consensus agreement).
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(6)
		c := newCluster(n, 1)
		vA, vB := valueOf("vA:1"), valueOf("vB:1")
		for _, addr := range c.addrs {
			switch r.Intn(3) {
			case 0:
				c.instances[addr].RegisterFastRoundVote(vA)
			case 1:
				c.instances[addr].RegisterFastRoundVote(vB)
			default:
				c.instances[addr].SetProposal(vA)
			}
		}
		coordinator := c.addrs[r.Intn(n)]
		c.instances[coordinator].StartPhase1a(2)
		// Possibly a second coordinator.
		if r.Intn(2) == 0 {
			c.instances[c.addrs[r.Intn(n)]].StartPhase1a(3)
		}
		uniq := c.uniqueDecisions()
		return len(uniq) <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
