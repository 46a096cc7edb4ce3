package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
)

// installTestEngine builds an unstarted cluster "m0000:1" and its engine over
// n members.
func installTestEngine(tb testing.TB, n int) (*Cluster, *engine) {
	tb.Helper()
	net := simnet.New(simnet.Options{Seed: 1})
	tb.Cleanup(net.Close)
	c, err := newCluster("m0000:1", testSettings(), net)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(c.Stop)
	members := []node.Endpoint{c.me}
	for i := 1; i < n; i++ {
		members = append(members, node.Endpoint{Addr: node.Addr(fmt.Sprintf("m%04d:1", i)), ID: node.ID{High: 1, Low: uint64(i)}})
	}
	return c, newEngine(c, members)
}

// TestViewChangeSharesOneMembership installs a cut that removes one member
// and admits a parked joiner, then checks that every consumer of the new
// configuration got the same members: the snapshot, the broadcaster, the
// joiner's phase-2 response and the subscriber notification share the view's
// slice, and the snapshot lookups find exactly those members.
func TestViewChangeSharesOneMembership(t *testing.T) {
	c, e := installTestEngine(t, 20)
	joiner := node.Endpoint{Addr: "j0001:1", ID: node.ID{High: 2, Low: 1}, Metadata: map[string]string{"role": "backend"}}
	reply := make(chan *remoting.JoinResponse, 1)
	e.joinWaiters[joiner.Addr] = []*joinEvent{{
		msg:   &remoting.JoinRequest{Sender: joiner.Addr, JoinerID: joiner.ID},
		reply: reply,
	}}
	victim, _ := e.view.Member("m0007:1")
	want := slices.DeleteFunc(append([]node.Endpoint(nil), e.view.Members()...), func(ep node.Endpoint) bool { return ep.Addr == victim.Addr })
	want = append(want, joiner)
	slices.SortFunc(want, func(a, b node.Endpoint) int { return strings.Compare(string(a.Addr), string(b.Addr)) })
	prevID := c.ConfigurationID()

	e.applyDecision([]node.Endpoint{victim, joiner})

	members := e.view.Members()
	if !slices.EqualFunc(members, want, node.Endpoint.Equal) {
		t.Fatalf("view members = %v, want %v", members, want)
	}
	s := c.snap.Load()
	resp := <-reply
	c.notifier.mu.Lock()
	vc := c.notifier.queue[len(c.notifier.queue)-1]
	c.notifier.mu.Unlock()
	for name, got := range map[string][]node.Endpoint{"snapshot": s.members, "join response": resp.Members, "subscriber": vc.Members} {
		if len(got) != len(members) || &got[0] != &members[0] {
			t.Errorf("%s does not share the view's member list", name)
		}
	}
	if resp.Status != remoting.JoinSafeToJoin || resp.ConfigurationID != s.configID || vc.ConfigurationID != s.configID {
		t.Errorf("join response %v/%#x, notification %#x, snapshot %#x", resp.Status, resp.ConfigurationID, vc.ConfigurationID, s.configID)
	}
	if got := c.unicast.Members(); !slices.Equal(got, node.EndpointAddrs(want)) {
		t.Errorf("broadcast recipients = %v, want %v", got, node.EndpointAddrs(want))
	}
	copied := c.Members()
	if !slices.EqualFunc(copied, want, node.Endpoint.Equal) || &copied[0] == &members[0] {
		t.Error("Cluster.Members() must return an equal, private copy")
	}
	if md, ok := c.Metadata(joiner.Addr); !ok || md["role"] != "backend" {
		t.Errorf("Metadata(joiner) = %v, %v", md, ok)
	}
	if _, ok := c.Metadata(victim.Addr); ok {
		t.Error("the removed member still has metadata")
	}
	if !c.IsMember() {
		t.Error("this process is no longer a member of its own view")
	}
	if !slices.Equal(s.pastConfigs, []uint64{prevID}) {
		t.Errorf("pastConfigs = %#x, want the configuration moved past, %#x", s.pastConfigs, prevID)
	}
}

// TestProbeAnswersArePrebuilt pins that answering a probe allocates nothing:
// the two possible answers are built once per cluster and shared.
func TestProbeAnswersArePrebuilt(t *testing.T) {
	c, _ := installTestEngine(t, 2)
	if r := c.handleProbe(); r.Probe.Status != remoting.NodeBootstrapping || r.Probe.Sender != c.me.Addr {
		t.Fatalf("unstarted probe answer = %+v", r.Probe)
	}
	c.started.Store(true)
	if r := c.handleProbe(); r.Probe.Status != remoting.NodeOK || r.Probe.Sender != c.me.Addr {
		t.Fatalf("started probe answer = %+v", r.Probe)
	}
	if allocs := testing.AllocsPerRun(100, func() { c.handleProbe() }); allocs != 0 {
		t.Fatalf("a probe answer allocates %.0f objects, want 0", allocs)
	}
}

// BenchmarkViewChangeInstall applies a 2-member cut (one member removed, one
// joiner added) to a 200-member configuration: the work every member's engine
// does to install each view change — view mutation, the sorted membership
// and configuration ID, broadcaster recipients, a fresh consensus instance,
// the published snapshot, monitor subjects and the subscriber notification.
func BenchmarkViewChangeInstall(b *testing.B) {
	const n = 200
	c, e := installTestEngine(b, n)
	// Drain notifications as a running cluster would, so coalescing never
	// grows the queued change lists.
	go c.notifier.run()
	joiners := make([]node.Endpoint, b.N)
	for i := range joiners {
		joiners[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("j%08d:1", i)), ID: node.ID{High: 2, Low: uint64(i)}}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addrs := e.view.MemberAddrs()
		victim, _ := e.view.Member(addrs[1+i%(len(addrs)-1)])
		e.applyDecision([]node.Endpoint{victim, joiners[i]})
	}
	b.StopTimer()
	if e.view.Size() != n {
		b.Fatalf("size drifted to %d", e.view.Size())
	}
}
