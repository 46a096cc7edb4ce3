package view

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/node"
)

// referenceConfiguration recomputes a membership's sorted members, sorted
// addresses and configuration ID from scratch, the way the view computed
// them before it cached one configuration per membership.
func referenceConfiguration(set map[node.Addr]node.Endpoint) ([]node.Endpoint, []node.Addr, uint64) {
	members := make([]node.Endpoint, 0, len(set))
	for _, ep := range set {
		members = append(members, ep)
	}
	sort.Slice(members, func(i, j int) bool { return members[i].Addr < members[j].Addr })
	addrs := make([]node.Addr, len(members))
	h := uint64(fnvOffset)
	for i, ep := range members {
		addrs[i] = ep.Addr
		for _, b := range []byte(ep.Addr) {
			h = (h ^ uint64(b)) * fnvPrime
		}
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(ep.ID.High>>(8*j)))) * fnvPrime
		}
		for j := 0; j < 8; j++ {
			h = (h ^ uint64(byte(ep.ID.Low>>(8*j)))) * fnvPrime
		}
	}
	return members, addrs, h
}

// checkConfiguration requires v's shared configuration to equal the
// from-scratch recomputation of set.
func checkConfiguration(t *testing.T, step string, v *View, set map[node.Addr]node.Endpoint) {
	t.Helper()
	wantMembers, wantAddrs, wantID := referenceConfiguration(set)
	members, addrs := v.Members(), v.MemberAddrs()
	if len(members) != len(wantMembers) || len(addrs) != len(wantAddrs) {
		t.Fatalf("%s: %d members, %d addrs; want %d", step, len(members), len(addrs), len(wantMembers))
	}
	for i := range wantMembers {
		if !members[i].Equal(wantMembers[i]) || addrs[i] != wantAddrs[i] {
			t.Fatalf("%s: position %d holds %v/%s, want %v", step, i, members[i], addrs[i], wantMembers[i])
		}
	}
	if id := v.ConfigurationID(); id != wantID {
		t.Fatalf("%s: ConfigurationID = %#x, want %#x", step, id, wantID)
	}
}

// TestSharedConfigurationMatchesRecomputation drives random add/remove churn
// and checks the cached members, addresses and ID against a from-scratch
// recomputation after every step, on the view and on clones of it. It also
// checks that a configuration handed out earlier is never modified by later
// changes: callers share those slices.
func TestSharedConfigurationMatchesRecomputation(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	set := map[node.Addr]node.Endpoint{}
	for _, ep := range endpoints(30) {
		set[ep.Addr] = ep
	}
	v := NewWithMembers(5, endpoints(30))
	checkConfiguration(t, "initial", v, set)
	nextID := uint64(1000)
	for step := 0; step < 300; step++ {
		before := v.Members()
		frozen := append([]node.Endpoint(nil), before...)
		if r.Intn(2) == 0 && len(set) > 0 {
			victim := v.MemberAddrs()[r.Intn(len(set))]
			if err := v.RemoveMember(victim); err != nil {
				t.Fatal(err)
			}
			delete(set, victim)
		} else {
			nextID++
			ep := node.Endpoint{Addr: node.Addr(fmt.Sprintf("10.1.%d.%d:5000", r.Intn(4), r.Intn(64))), ID: node.ID{High: 7, Low: nextID}}
			if err := v.AddMember(ep); err == nil {
				set[ep.Addr] = ep
			}
		}
		checkConfiguration(t, fmt.Sprintf("step %d", step), v, set)
		for i := range frozen {
			if !before[i].Equal(frozen[i]) {
				t.Fatalf("step %d: a configuration handed out earlier was modified", step)
			}
		}
		if step%10 == 0 {
			checkConfiguration(t, fmt.Sprintf("clone at step %d", step), v.Clone(), set)
		}
	}
	// A clone taken before the cache is built builds its own.
	v.RemoveMember(v.MemberAddrs()[0])
	clone := v.Clone()
	for addr := range set {
		if !v.Contains(addr) {
			delete(set, addr)
		}
	}
	checkConfiguration(t, "clone of an unbuilt configuration", clone, set)
	checkConfiguration(t, "original after clone", v, set)
}

// TestConfigurationBuiltOncePerConfiguration pins that readers share one
// configuration: repeated reads return the same slices and allocate nothing.
func TestConfigurationBuiltOncePerConfiguration(t *testing.T) {
	v := NewWithMembers(10, endpoints(200))
	m, a := v.Members(), v.MemberAddrs()
	if &v.Members()[0] != &m[0] || &v.MemberAddrs()[0] != &a[0] {
		t.Fatal("Members/MemberAddrs rebuilt an unchanged configuration")
	}
	allocs := testing.AllocsPerRun(100, func() {
		v.Members()
		v.MemberAddrs()
		v.ConfigurationID()
	})
	if allocs != 0 {
		t.Fatalf("reading a built configuration allocates %.0f times, want 0", allocs)
	}
}

// TestConfigurationIDGolden pins configuration IDs to the values every
// earlier version computed: members of different versions must agree on the
// ID of the same membership set, or they would ignore each other's messages.
func TestConfigurationIDGolden(t *testing.T) {
	cases := []struct {
		n    int
		want uint64
	}{
		{0, 0xcbf29ce484222325},
		{1, 0xa44c2f0252e606d5},
		{5, 0x4bdc9989b9dba4c9},
		{200, 0x931f7c71ea392b19},
	}
	for _, c := range cases {
		if got := NewWithMembers(10, endpoints(c.n)).ConfigurationID(); got != c.want {
			t.Errorf("ConfigurationID of %d members = %#x, want %#x", c.n, got, c.want)
		}
	}
	v := NewWithMembers(10, endpoints(50))
	for i := 0; i < 50; i += 3 {
		if err := v.RemoveMember(endpoints(50)[i].Addr); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := v.ConfigurationID(), uint64(0x8d1600f6995a4be5); got != want || v.Size() != 33 {
		t.Errorf("ConfigurationID after removals = %#x (%d members), want %#x (33)", got, v.Size(), want)
	}
}
