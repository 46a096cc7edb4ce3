package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
)

// member is one Rapid process of a workload.
type member struct {
	addr node.Addr
	c    *core.Cluster
	// tcp is the member's own transport in the TCP workload (nil on simnet):
	// separate processes would not share pools or a best-effort queue.
	tcp *tcpnet.Network
	log subLog
	// final holds the engine counters captured just before Stop.
	final     core.EngineStats
	finalView int
	// checked is how many deliveries earlier phase checks compared, and
	// present whether the member was live at the previous check.
	checked int
	present bool
}

// delivery is one view change as a member's subscriber received it.
type delivery struct {
	at        time.Time
	id        uint64
	size      int
	coalesced bool
}

// subLog records what a member's subscriber saw. It keeps sizes, not member
// lists: a bootstrap delivers tens of configurations to every subscriber.
type subLog struct {
	mu         sync.Mutex
	deliveries []delivery
}

func (l *subLog) last() (delivery, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.deliveries) == 0 {
		return delivery{}, false
	}
	return l.deliveries[len(l.deliveries)-1], true
}

// round is one fault injection whose removal the subscribers time.
type round struct {
	victims map[node.Addr]bool
	start   time.Time

	mu        sync.Mutex
	removedAt map[node.Addr]time.Duration
}

// accounting counts attempted and failed operations. A failed operation is
// a join that errors, a phase that times out or an oracle violation; each
// is recorded with a message.
type accounting struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	violations []string
}

// succeeded counts one operation that completed correctly.
func (a *accounting) succeeded() {
	a.mu.Lock()
	a.attempted++
	a.mu.Unlock()
}

// violate counts one failed operation and records why.
func (a *accounting) violate(format string, args ...any) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	a.failed++
	// A broken run can report the same violation from every member; the
	// first few name the problem.
	if len(a.violations) < 50 {
		a.violations = append(a.violations, fmt.Sprintf(format, args...))
	} else {
		a.violations[len(a.violations)-1] = fmt.Sprintf("... and more, last: "+format, args...)
	}
}

func (a *accounting) failedPct() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.attempted == 0 {
		return 0
	}
	return 100 * float64(a.failed) / float64(a.attempted)
}

// fleet is one cluster under test plus the oracle watching it.
type fleet struct {
	settings core.Settings
	sim      *simnet.Network // simnet workloads only
	rec      *recorder       // nil when untraced
	acct     *accounting

	mu      sync.Mutex
	members map[node.Addr]*member // live members
	stopped []*member
	nextIdx int
	used    map[node.Addr]bool // every loopback address handed out

	// readable is the reader's rotation: live members, copied on change.
	readable atomic.Pointer[[]*core.Cluster]
	round    atomic.Pointer[round]
	peakG    atomic.Int64
}

func newFleet(w workload, seed int64, rec *recorder, acct *accounting) *fleet {
	f := &fleet{
		settings: w.settings(),
		rec:      rec,
		acct:     acct,
		members:  map[node.Addr]*member{},
		used:     map[node.Addr]bool{},
	}
	if w.Transport == "simnet" {
		f.sim = simnet.New(simnet.Options{Seed: seed})
	}
	empty := []*core.Cluster{}
	f.readable.Store(&empty)
	return f
}

// endpoint allocates a fresh address and the transport the member will use.
func (f *fleet) endpoint() (node.Addr, transport.Network, *tcpnet.Network, error) {
	f.mu.Lock()
	idx := f.nextIdx
	f.nextIdx++
	f.mu.Unlock()
	if f.sim != nil {
		addr := node.Addr(fmt.Sprintf("m%05d:9000", idx))
		return addr, f.wrap(f.sim), nil, nil
	}
	addr, err := f.freshLoopbackAddr()
	if err != nil {
		return "", nil, nil, err
	}
	tn, err := tcpnet.New(tcpnet.Options{})
	if err != nil {
		return "", nil, nil, fmt.Errorf("tcp transport for %s: %w", addr, err)
	}
	return addr, f.wrap(tn), tn, nil
}

func (f *fleet) wrap(n transport.Network) transport.Network {
	if f.rec == nil {
		return n
	}
	return &tracedNet{inner: n, rec: f.rec}
}

// freshLoopbackAddr returns a free loopback address this fleet never used.
// The kernel hands recently released ports out again, and a joiner taking a
// stopped member's address would recreate an earlier membership set, so an
// earlier configuration ID would recur.
func (f *fleet) freshLoopbackAddr() (node.Addr, error) {
	for tries := 0; tries < 100; tries++ {
		addr, err := freeLoopbackAddr()
		if err != nil {
			return "", err
		}
		f.mu.Lock()
		fresh := !f.used[addr]
		f.used[addr] = true
		f.mu.Unlock()
		if fresh {
			return addr, nil
		}
	}
	return "", fmt.Errorf("no unused loopback port after 100 tries")
}

// freeLoopbackAddr asks the kernel for an unused loopback port. The member
// binds it moments later; a clash makes its join fail and be counted.
func freeLoopbackAddr() (node.Addr, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("reserve loopback port: %w", err)
	}
	addr := ln.Addr().String()
	if err := ln.Close(); err != nil {
		return "", fmt.Errorf("release loopback port: %w", err)
	}
	return node.Addr(addr), nil
}

// start boots the seed member.
func (f *fleet) start() (*member, error) {
	addr, netw, tn, err := f.endpoint()
	if err != nil {
		return nil, err
	}
	c, err := core.StartCluster(addr, f.settings, netw)
	if err != nil {
		if tn != nil {
			tn.Close()
		}
		return nil, fmt.Errorf("start seed %s: %w", addr, err)
	}
	return f.admit(addr, c, tn), nil
}

// join runs one JoinCluster call through seed and returns its latency.
func (f *fleet) join(seed node.Addr) (*member, time.Duration, error) {
	addr, netw, tn, err := f.endpoint()
	if err != nil {
		return nil, 0, err
	}
	begin := time.Now()
	c, err := core.JoinCluster(addr, []node.Addr{seed}, f.settings, netw)
	took := time.Since(begin)
	if err != nil {
		if tn != nil {
			tn.Close()
		}
		return nil, took, fmt.Errorf("join %s via %s: %w", addr, seed, err)
	}
	return f.admit(addr, c, tn), took, nil
}

// joinMany runs count JoinCluster calls at once and returns the latencies of
// those that succeeded; every call counts as one attempted operation.
func (f *fleet) joinMany(count int, seedFor func(i int) node.Addr) ([]float64, []*member) {
	type res struct {
		m    *member
		took time.Duration
		err  error
	}
	out := make(chan res, count)
	for i := 0; i < count; i++ {
		seed := seedFor(i)
		go func() {
			m, took, err := f.join(seed)
			out <- res{m, took, err}
		}()
	}
	var lats []float64
	var joined []*member
	for i := 0; i < count; i++ {
		r := <-out
		if r.err != nil {
			f.acct.violate("join failed: %v", r.err)
			continue
		}
		f.acct.succeeded()
		lats = append(lats, r.took.Seconds())
		joined = append(joined, r.m)
	}
	return lats, joined
}

// admit registers a started member with the fleet and subscribes to it.
func (f *fleet) admit(addr node.Addr, c *core.Cluster, tn *tcpnet.Network) *member {
	m := &member{addr: addr, c: c, tcp: tn}
	c.Subscribe(func(vc core.ViewChange) { f.observe(m, vc) })
	f.mu.Lock()
	f.members[addr] = m
	old := *f.readable.Load()
	list := make([]*core.Cluster, len(old), len(old)+1)
	copy(list, old)
	list = append(list, c)
	f.readable.Store(&list)
	f.mu.Unlock()
	return m
}

// publishReadable rebuilds the reader's rotation after members left; f.mu
// must be held.
func (f *fleet) publishReadable() {
	list := make([]*core.Cluster, 0, len(f.members))
	for _, m := range f.members {
		list = append(list, m.c)
	}
	f.readable.Store(&list)
}

// observe is every member's subscriber. It checks that each notification's
// size follows from the previous one and the announced changes, and times
// removals.
func (f *fleet) observe(m *member, vc core.ViewChange) {
	now := time.Now()
	m.log.mu.Lock()
	var prev delivery
	hasPrev := len(m.log.deliveries) > 0
	if hasPrev {
		prev = m.log.deliveries[len(m.log.deliveries)-1]
	}
	m.log.deliveries = append(m.log.deliveries, delivery{at: now, id: vc.ConfigurationID, size: len(vc.Members), coalesced: vc.Coalesced > 0})
	m.log.mu.Unlock()

	if hasPrev {
		joined, removed := 0, 0
		for _, ch := range vc.Changes {
			if ch.Joined {
				joined++
			} else {
				removed++
			}
		}
		if prev.size+joined-removed != len(vc.Members) {
			f.acct.violate("%s: configuration %x has %d members, but %d + %d joined - %d removed were announced",
				m.addr, vc.ConfigurationID, len(vc.Members), prev.size, joined, removed)
		}
		if vc.ConfigurationID == prev.id {
			f.acct.violate("%s: configuration %x delivered twice", m.addr, vc.ConfigurationID)
		}
	}

	if r := f.round.Load(); r != nil && !r.victims[m.addr] {
		for _, ep := range vc.Members {
			if r.victims[ep.Addr] {
				return
			}
		}
		r.mu.Lock()
		if _, ok := r.removedAt[m.addr]; !ok {
			r.removedAt[m.addr] = now.Sub(r.start)
		}
		r.mu.Unlock()
	}
}

// live returns the live members sorted by address.
func (f *fleet) live() []*member {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]*member, 0, len(f.members))
	for _, m := range f.members {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].addr < out[j].addr })
	return out
}

// failAll fails the victims at once: on simnet every victim is cut off
// before any is stopped, so the survivors see one multi-process cut.
func (f *fleet) failAll(victims []*member) {
	f.mu.Lock()
	for _, v := range victims {
		delete(f.members, v.addr)
	}
	f.publishReadable()
	f.mu.Unlock()
	if f.sim != nil {
		for _, v := range victims {
			f.sim.Crash(v.addr)
		}
	}
	var wg sync.WaitGroup
	for _, v := range victims {
		wg.Add(1)
		go func(v *member) {
			defer wg.Done()
			f.retire(v)
		}(v)
	}
	wg.Wait()
}

// retire stops a member and keeps its final counters.
func (f *fleet) retire(m *member) {
	m.final = m.c.Stats()
	m.finalView = m.c.ViewChangeCount()
	m.c.Stop()
	if m.tcp != nil {
		m.tcp.Close()
	}
	f.mu.Lock()
	f.stopped = append(f.stopped, m)
	f.mu.Unlock()
}

// stop tears the whole fleet down, waiting for every goroutine it owns.
func (f *fleet) stop() {
	live := f.live()
	f.mu.Lock()
	f.members = map[node.Addr]*member{}
	f.publishReadable()
	f.mu.Unlock()
	var wg sync.WaitGroup
	for _, m := range live {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			f.retire(m)
		}(m)
	}
	wg.Wait()
	if f.sim != nil {
		f.sim.Close()
	}
}

// awaitAgreement polls until every live member reports want members under
// one configuration ID.
func (f *fleet) awaitAgreement(want int, timeout time.Duration) (time.Duration, bool) {
	begin := time.Now()
	live := f.live()
	for {
		f.samplePeak()
		if agreed(live, want) {
			return time.Since(begin), true
		}
		if time.Since(begin) > timeout {
			return time.Since(begin), false
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func agreed(live []*member, want int) bool {
	if len(live) != want {
		return false
	}
	id := live[0].c.ConfigurationID()
	for _, m := range live {
		if m.c.Size() != want || m.c.ConfigurationID() != id {
			return false
		}
	}
	return true
}

func (f *fleet) samplePeak() {
	if g := int64(runtime.NumGoroutine()); g > f.peakG.Load() {
		f.peakG.Store(g)
	}
}

// checkPhase is the oracle run after every phase: every live member agrees
// on one configuration whose member set is exactly the live set (so every
// failed member is gone, every joiner admitted, no live member evicted), and
// every subscriber has been delivered that configuration.
func (f *fleet) checkPhase(label string) {
	live := f.live()
	if len(live) == 0 {
		f.acct.violate("%s: no live members", label)
		return
	}
	want := make([]node.Addr, len(live))
	for i, m := range live {
		want[i] = m.addr
	}
	id := live[0].c.ConfigurationID()
	for _, m := range live {
		if !m.c.IsMember() {
			f.acct.violate("%s: live member %s was evicted", label, m.addr)
		}
		if got := m.c.ConfigurationID(); got != id {
			f.acct.violate("%s: %s is in configuration %x, %s in %x", label, m.addr, got, live[0].addr, id)
		}
	}
	if got := node.EndpointAddrs(live[0].c.Members()); !equalAddrs(got, want) {
		f.acct.violate("%s: membership has %d members, %d are live (%s)", label, len(got), len(want), diffAddrs(got, want))
	}
	// A member admitted by the final view change starts in it, and a
	// subscriber only hears of changes after its own start, so a member
	// whose subscriber heard nothing yet may still have deliveries queued:
	// wait until its notifier is drained, twice in a row.
	settled := func(m *member) bool {
		d, ok := m.log.last()
		return m.c.Stats().NotifierDepth == 0 && ((ok && d.id == id) || (!ok && m.c.ConfigurationID() == id))
	}
	unsettled := func() []*member {
		var out []*member
		for _, m := range live {
			if !settled(m) {
				out = append(out, m)
			}
		}
		return out
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		pending := unsettled()
		if len(pending) == 0 {
			time.Sleep(time.Millisecond)
			if pending = unsettled(); len(pending) == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			for _, m := range pending {
				f.acct.violate("%s: subscriber of %s never received configuration %x", label, m.addr, id)
			}
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.checkSequences(label, live)
}

// checkSequences compares the configurations each subscriber saw since the
// previous check. Members live at that check must all have seen the same
// sequence; a member admitted since must have seen a suffix of it, and one
// whose notifier coalesced a subsequence. Configuration IDs identify
// membership sets, so an ID can recur (remove a member, then the same set
// again) and only whole sequences can be compared.
func (f *fleet) checkSequences(label string, live []*member) {
	type seen struct {
		m         *member
		ids       []uint64
		coalesced bool
	}
	all := make([]seen, len(live))
	var ref []uint64
	for i, m := range live {
		m.log.mu.Lock()
		s := seen{m: m}
		for _, d := range m.log.deliveries[m.checked:] {
			s.ids = append(s.ids, d.id)
			s.coalesced = s.coalesced || d.coalesced
		}
		m.checked = len(m.log.deliveries)
		m.log.mu.Unlock()
		if !s.coalesced && len(s.ids) > len(ref) {
			ref = s.ids
		}
		all[i] = s
	}
	for _, s := range all {
		var ok bool
		switch {
		case s.coalesced:
			ok = isSubsequence(s.ids, ref)
		case s.m.present:
			ok = len(s.ids) == len(ref) && isSuffix(s.ids, ref)
		default:
			ok = isSuffix(s.ids, ref)
		}
		if !ok {
			f.acct.violate("%s: %s saw configurations %x, another member %x", label, s.m.addr, s.ids, ref)
		}
		s.m.present = true
	}
}

func isSuffix(s, of []uint64) bool {
	if len(s) > len(of) {
		return false
	}
	off := len(of) - len(s)
	for i := range s {
		if s[i] != of[off+i] {
			return false
		}
	}
	return true
}

func isSubsequence(s, of []uint64) bool {
	j := 0
	for _, id := range of {
		if j < len(s) && s[j] == id {
			j++
		}
	}
	return j == len(s)
}

func equalAddrs(a, b []node.Addr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func diffAddrs(got, want []node.Addr) string {
	in := map[node.Addr]bool{}
	for _, a := range got {
		in[a] = true
	}
	var missing, extra []string
	for _, a := range want {
		if !in[a] {
			missing = append(missing, string(a))
		}
		delete(in, a)
	}
	for a := range in {
		extra = append(extra, string(a))
	}
	sort.Strings(extra)
	return fmt.Sprintf("missing %v, extra %v", missing, extra)
}

// startRound arms removal timing for the given victims.
func (f *fleet) startRound(victims []*member) *round {
	r := &round{victims: map[node.Addr]bool{}, start: time.Now(), removedAt: map[node.Addr]time.Duration{}}
	for _, v := range victims {
		r.victims[v.addr] = true
	}
	f.round.Store(r)
	return r
}

// awaitRemoval waits until every survivor's subscriber has received a
// configuration without the victims and returns the per-survivor latencies.
func (f *fleet) awaitRemoval(r *round, survivors int, timeout time.Duration) ([]float64, bool) {
	deadline := r.start.Add(timeout)
	for {
		f.samplePeak()
		r.mu.Lock()
		n := len(r.removedAt)
		r.mu.Unlock()
		if n >= survivors || time.Now().After(deadline) {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	f.round.Store(nil)
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, len(r.removedAt))
	for _, d := range r.removedAt {
		out = append(out, d.Seconds())
	}
	return out, len(out) >= survivors
}

// engineTotals sums the engine counters over every member the fleet ran.
type engineTotals struct {
	events, batches, shed, coalesced, viewChanges int64
	queueFull                                     time.Duration
	batchSum                                      float64
	batchCount                                    int64
	members                                       int
}

func (f *fleet) engineTotals() engineTotals {
	var t engineTotals
	add := func(st core.EngineStats, views int) {
		t.events += st.EventsProcessed
		t.batches += st.BatchesSent
		t.shed += st.ShedBatches
		t.coalesced += st.NotifierCoalesced
		t.queueFull += st.QueueFullTime
		t.batchSum += st.BatchSizes.Mean * float64(st.BatchSizes.Count)
		t.batchCount += st.BatchSizes.Count
		t.viewChanges += int64(views)
		t.members++
	}
	for _, m := range f.live() {
		add(m.c.Stats(), m.c.ViewChangeCount())
	}
	f.mu.Lock()
	stopped := append([]*member(nil), f.stopped...)
	f.mu.Unlock()
	for _, m := range stopped {
		add(m.final, m.finalView)
	}
	return t
}

func (t engineTotals) plus(o engineTotals) engineTotals {
	return engineTotals{
		events:      t.events + o.events,
		batches:     t.batches + o.batches,
		shed:        t.shed + o.shed,
		coalesced:   t.coalesced + o.coalesced,
		viewChanges: t.viewChanges + o.viewChanges,
		queueFull:   t.queueFull + o.queueFull,
		batchSum:    t.batchSum + o.batchSum,
		batchCount:  t.batchCount + o.batchCount,
		members:     t.members + o.members,
	}
}

func (t engineTotals) minus(base engineTotals) engineTotals {
	return engineTotals{
		events:      t.events - base.events,
		batches:     t.batches - base.batches,
		shed:        t.shed - base.shed,
		coalesced:   t.coalesced - base.coalesced,
		viewChanges: t.viewChanges - base.viewChanges,
		queueFull:   t.queueFull - base.queueFull,
		batchSum:    t.batchSum - base.batchSum,
		batchCount:  t.batchCount - base.batchCount,
		members:     t.members,
	}
}

// simnetKinds maps the per-layer message groups to simnet's request kinds.
var simnetKinds = map[string][]string{
	"probe":        {"probe"},
	"alerts_votes": {"alerts", "votebatch", "alerts+votes", "fastround"},
	"prejoin":      {"prejoin"},
	"join":         {"join"},
	"phase1a":      {"phase1a"},
}

// messageCounts reads simnet's send counters per message group, plus "all"
// (nil on TCP).
func (f *fleet) messageCounts() map[string]int64 {
	if f.sim == nil {
		return nil
	}
	out := map[string]int64{"all": f.sim.TotalMessages()}
	for group, raw := range simnetKinds {
		for _, k := range raw {
			out[group] += f.sim.MessageCount(k)
		}
	}
	return out
}

// addCounts returns a + sign*b per key; nil stays nil.
func addCounts(a, b map[string]int64, sign int64) map[string]int64 {
	if a == nil && b == nil {
		return nil
	}
	out := map[string]int64{}
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += sign * v
	}
	return out
}

// tcpTotals sums the transport counters over every member's own network.
func (f *fleet) tcpTotals() tcpnet.Stats {
	var t tcpnet.Stats
	f.mu.Lock()
	all := append([]*member(nil), f.stopped...)
	for _, m := range f.members {
		all = append(all, m)
	}
	f.mu.Unlock()
	for _, m := range all {
		if m.tcp == nil {
			continue
		}
		s := m.tcp.Stats()
		t.Dials += s.Dials
		t.DialErrors += s.DialErrors
		t.Requests += s.Requests
		t.BestEffortDropped += s.BestEffortDropped
	}
	return t
}

// notifySpread is the median time from the first to the last subscriber
// delivery of one configuration, over configurations delivered to more than
// one subscriber after since, and the number of configurations delivered
// after since.
func (f *fleet) notifySpread(since time.Time) (float64, int) {
	type span struct {
		first, last time.Time
		count       int
	}
	spans := map[uint64]*span{}
	f.mu.Lock()
	all := append([]*member(nil), f.stopped...)
	for _, m := range f.members {
		all = append(all, m)
	}
	f.mu.Unlock()
	for _, m := range all {
		m.log.mu.Lock()
		for _, d := range m.log.deliveries {
			if d.at.Before(since) {
				continue
			}
			s, ok := spans[d.id]
			if !ok {
				s = &span{first: d.at, last: d.at}
				spans[d.id] = s
			}
			if d.at.Before(s.first) {
				s.first = d.at
			}
			if d.at.After(s.last) {
				s.last = d.at
			}
			s.count++
		}
		m.log.mu.Unlock()
	}
	var spreads []float64
	for _, s := range spans {
		if s.count > 1 {
			spreads = append(spreads, s.last.Sub(s.first).Seconds()*1e3)
		}
	}
	return median(spreads), len(spans)
}

// kindOf folds request kinds into the groups the per-layer metrics use.
func kindOf(req *remoting.Request) string {
	switch k := req.Kind(); k {
	case "alerts", "votebatch", "alerts+votes", "fastround":
		return "alerts_votes"
	case "probe", "prejoin", "join", "phase1a":
		return k
	default:
		return "other"
	}
}
