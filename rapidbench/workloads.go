package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/node"
	"repro/internal/tcpnet"
)

// workload is one set of inputs the benchmark runs. Each one exercises a
// different set of layers, so an optimisation of one layer shows on one
// workload and must show no change on another:
//
//   - bootstrap-1000 is the paper's Figure 5 storm at paper scale and the
//     shape of the CI smoke: every member joins one seed at once, repeated
//     for the whole measured phase. It is CPU-bound; membership
//     materialisation (view) next to the join/alert/vote engine path
//     dominates it. It runs by name and in --all but is not in
//     BENCHMARK.json: the work of one bootstrap varies tenfold (1k to 100k+
//     messages at N=200, storms of 15-80 s at N=1000 on two cores), so
//     per-run medians of bootstrap time, CPU and allocation moved by 30% to
//     over 100% between runs at N=1000, 500, 300 and 200 alike.
//   - churn-200 is idle probing followed by rounds of a two-member crash (a
//     multi-process cut) and two joins, with a subscriber on every member.
//     Its latency comes from protocol timers, not CPU, so a view saving must
//     leave remove_p50_s unchanged while probe-path savings move cpu_s.
//   - tcp-50 is the only workload that runs the remoting codec and the
//     tcpnet frame, pool and server code; simnet passes pointers. Every
//     member has its own tcpnet.Network, as separate processes would.
type workload struct {
	Name      string
	Transport string // "simnet" or "tcp"
	N         int
	Scale     float64 // protocol time compression (core.ScaledSettings)
	// Storm makes the measured phase a sequence of whole bootstraps;
	// otherwise it is an idle window followed by fail/join rounds.
	Storm bool
	// Setups is how many times a churn workload bootstraps its cluster in
	// set-up (the last one is measured on), so setup_s is a median.
	Setups int
	Idle   time.Duration
	Fail   int // members failed at once per round
	Join   int // fresh members joined per round
}

var workloads = []workload{
	{Name: "bootstrap-1000", Transport: "simnet", N: 1000, Scale: 20, Storm: true},
	{Name: "churn-200", Transport: "simnet", N: 200, Scale: 20, Setups: 7, Idle: 2 * time.Second, Fail: 2, Join: 2},
	{Name: "tcp-50", Transport: "tcp", N: 50, Scale: 10, Setups: 5, Idle: 2 * time.Second, Fail: 1, Join: 1},
}

// readerPause is the closed-loop reader's think time between two
// Members() calls: enough reads for a well-supported p99, about 1% of a
// core, so the reader does not itself dominate cpu_s.
const readerPause = time.Millisecond

// phaseTimeout bounds one bootstrap, removal or join phase; hitting it
// counts as a failed operation.
const phaseTimeout = 60 * time.Second

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

func (w workload) params() map[string]string {
	p := map[string]string{
		"transport":  w.Transport,
		"n":          strconv.Itoa(w.N),
		"time_scale": strconv.FormatFloat(w.Scale, 'g', -1, 64),
		"reader":     "closed loop, 1 client, " + readerPause.String() + " think time",
	}
	if w.Storm {
		p["phase"] = "repeated bootstraps, all joins at once through one seed"
	} else {
		p["phase"] = fmt.Sprintf("%d set-ups, %s idle, rounds of fail %d + join %d", w.Setups, w.Idle, w.Fail, w.Join)
	}
	return p
}

// settings are the protocol settings every member of the workload uses.
func (w workload) settings() core.Settings {
	s := core.ScaledSettings(w.Scale)
	// Bootstrap storms admit joiners in waves; like the experiment harness,
	// give joiners enough attempts that the last wave still has budget.
	s.JoinAttempts = max(10, w.N/25)
	return s
}

// measured is what one run observed, before it is reduced to metrics.
type measured struct {
	setup, bootstrap []float64 // seconds
	joins, removes   []float64 // seconds
	// joinMedians holds each bootstrap's own join median: a storm shifts the
	// joins of its bootstrap only, so the median of medians resists it.
	joinMedians []float64
	// reads are the reader's Members() latencies in µs; readMedians, like
	// joinMedians, hold one median per bootstrap.
	reads, readMedians []float64
	reps               []delta // per bootstrap or per round
	idle               delta
	whole              delta
	liveHeap           []float64
	engine             engineTotals
	tcp                tcpnet.Stats
	// msgs are simnet's per-kind send counts over the measured phase (nil
	// on TCP, where the traced run's interposer counts instead).
	msgs map[string]int64
	// spreads are the median first-to-last subscriber delivery times, one
	// per bootstrap or churn phase; configs counts configurations delivered.
	spreads    []float64
	configs    int
	idleProbes int64
	joined     int
	peakG      int64
	// last is the last cluster the run built; earlier ones are released so
	// a stopped cluster's memory does not weigh on the next bootstrap.
	last *fleet
}

func (w workload) run(seed int64, measure time.Duration, traced bool, outDir string) (*report, *accounting) {
	acct := &accounting{}
	var rec *recorder
	if traced {
		rec = newRecorder()
	}
	node.SeedIDGenerator(seed)
	rng := rand.New(rand.NewSource(seed))
	var m measured
	if w.Storm {
		m = w.runStorm(seed, measure, rec, acct)
	} else {
		m = w.runChurn(seed, rng, measure, rec, acct)
	}
	rep := newReport()
	w.endToEnd(rep, &m)
	if traced {
		if err := w.perLayer(rep, &m, rec); err != nil {
			acct.violate("%v", err)
		}
		path := filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
		if err := rec.writeSpans(path); err != nil {
			acct.violate("%v", err)
		}
	}
	return rep, acct
}

// runStorm repeats whole bootstraps until the measured time is used up.
func (w workload) runStorm(seed int64, measure time.Duration, rec *recorder, acct *accounting) measured {
	var m measured
	rd := startReader(acct)
	defer rd.stop()
	begin := readUsage()
	var totals engineTotals
	for rep := 0; rep == 0 || time.Since(begin.wall) < measure; rep++ {
		setupBegin := time.Now()
		f := newFleet(w, seed*1000+int64(rep), rec, acct)
		seedM, err := f.start()
		if err != nil {
			acct.violate("bootstrap %d: %v", rep, err)
			f.stop()
			break
		}
		m.setup = append(m.setup, time.Since(setupBegin).Seconds())
		if rep == 0 && rec != nil {
			rec.reset()
		}
		rd.follow(f)
		u0 := readUsage()
		lats, joined := f.joinMany(w.N-1, func(int) node.Addr { return seedM.addr })
		_, ok := f.awaitAgreement(w.N, phaseTimeout)
		u1 := readUsage()
		if ok {
			acct.succeeded()
		} else {
			acct.violate("bootstrap %d: %d members did not agree within %s", rep, w.N, phaseTimeout)
		}
		m.joins = append(m.joins, lats...)
		m.joinMedians = append(m.joinMedians, median(lats))
		m.joined += len(joined)
		m.bootstrap = append(m.bootstrap, u1.wall.Sub(u0.wall).Seconds())
		m.reps = append(m.reps, u1.since(u0))
		f.checkPhase(fmt.Sprintf("bootstrap %d", rep))
		if rec != nil {
			spread, configs := f.notifySpread(u0.wall)
			m.spreads = append(m.spreads, spread)
			m.configs += configs
		}
		reads := rd.follow(nil)
		m.reads = append(m.reads, reads...)
		m.readMedians = append(m.readMedians, median(reads))
		m.liveHeap = append(m.liveHeap, liveHeapMB())
		totals = totals.plus(f.engineTotals())
		m.msgs = addCounts(m.msgs, f.messageCounts(), 1)
		f.stop()
		m.last = f
		m.peakG = max(m.peakG, f.peakG.Load())
		// Collect the stopped fleet so the next bootstrap starts from the
		// same small heap goal as the first one.
		runtime.GC()
		if !ok {
			break
		}
	}
	m.whole = readUsage().since(begin)
	m.engine = totals
	return m
}

// runChurn bootstraps the cluster Setups times, then measures an idle
// window followed by fail/join rounds until the measured time is used up.
func (w workload) runChurn(seed int64, rng *rand.Rand, measure time.Duration, rec *recorder, acct *accounting) measured {
	var m measured
	var f *fleet
	for i := 0; i < w.Setups; i++ {
		begin := time.Now()
		f = newFleet(w, seed*1000+int64(i), rec, acct)
		ok := false
		if seedM, err := f.start(); err != nil {
			acct.violate("set-up %d: %v", i, err)
		} else {
			u0 := readUsage()
			_, joined := f.joinMany(w.N-1, func(int) node.Addr { return seedM.addr })
			_, ok = f.awaitAgreement(len(joined)+1, phaseTimeout)
			ok = ok && len(joined) == w.N-1
			m.bootstrap = append(m.bootstrap, time.Since(u0.wall).Seconds())
		}
		if ok {
			acct.succeeded()
		} else {
			acct.violate("set-up %d: cluster of %d did not form", i, w.N)
			f.stop()
			return m
		}
		m.setup = append(m.setup, time.Since(begin).Seconds())
		f.checkPhase(fmt.Sprintf("set-up %d", i))
		if i < w.Setups-1 {
			f.stop()
		}
	}
	m.last = f
	defer f.stop()

	if rec != nil {
		rec.reset()
	}
	baseEngine := f.engineTotals()
	baseTCP := f.tcpTotals()
	baseMsgs := f.messageCounts()
	rd := startReader(acct)
	rd.follow(f)
	begin := readUsage()
	time.Sleep(min(w.Idle, measure/2))
	m.idle = readUsage().since(begin)
	if rec != nil {
		m.idleProbes = rec.send["probe"].count.Load()
	}
	for r := 0; time.Since(begin.wall) < measure; r++ {
		live := f.live()
		victims := make([]*member, 0, w.Fail)
		for _, i := range rng.Perm(len(live))[:w.Fail] {
			victims = append(victims, live[i])
		}
		u0 := readUsage()
		fault := f.startRound(victims)
		f.failAll(victims)
		lats, ok := f.awaitRemoval(fault, len(live)-len(victims), phaseTimeout)
		if ok {
			acct.succeeded()
		} else {
			acct.violate("round %d: %d of %d survivors saw the removal within %s", r, len(lats), len(live)-len(victims), phaseTimeout)
			break
		}
		m.removes = append(m.removes, lats...)
		// Joiners go one after another, each through a random survivor, so
		// every join latency is one join into a quiet cluster.
		survivors := f.live()
		joined := 0
		for j := 0; j < w.Join; j++ {
			jl, ms := f.joinMany(1, func(int) node.Addr { return survivors[rng.Intn(len(survivors))].addr })
			m.joins = append(m.joins, jl...)
			joined += len(ms)
			_, ok = f.awaitAgreement(len(survivors)+joined, phaseTimeout)
			if ok {
				acct.succeeded()
			} else {
				acct.violate("round %d: survivors and joiners did not agree within %s", r, phaseTimeout)
				break
			}
		}
		m.joined += joined
		if !ok {
			break
		}
		m.reps = append(m.reps, readUsage().since(u0))
		f.checkPhase(fmt.Sprintf("round %d", r))
	}
	m.reads = rd.follow(nil)
	rd.stop()
	m.whole = readUsage().since(begin)
	m.liveHeap = []float64{liveHeapMB()}
	m.engine = f.engineTotals().minus(baseEngine)
	t := f.tcpTotals()
	m.msgs = addCounts(f.messageCounts(), baseMsgs, -1)
	m.tcp = tcpnet.Stats{
		Dials: t.Dials - baseTCP.Dials, DialErrors: t.DialErrors - baseTCP.DialErrors,
		Requests: t.Requests - baseTCP.Requests, BestEffortDropped: t.BestEffortDropped - baseTCP.BestEffortDropped,
	}
	if rec != nil {
		spread, configs := f.notifySpread(begin.wall)
		m.spreads, m.configs = []float64{spread}, configs
	}
	return m
}

// reader is the closed-loop client calling Members() on a rotating live
// member for the whole measured phase.
type reader struct {
	acct *accounting
	mu   sync.Mutex
	f    *fleet
	lat  []float64 // µs
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

func startReader(acct *accounting) *reader {
	r := &reader{acct: acct, quit: make(chan struct{}), done: make(chan struct{})}
	go r.loop()
	return r
}

// follow points the reader at a fleet (nil pauses it) and returns the
// latencies, in µs, it recorded since the previous call.
func (r *reader) follow(f *fleet) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.f = f
	lat := r.lat
	r.lat = nil
	return lat
}

func (r *reader) loop() {
	defer close(r.done)
	tick := time.NewTimer(readerPause)
	defer tick.Stop()
	for i := 0; ; i++ {
		r.mu.Lock()
		f := r.f
		r.mu.Unlock()
		if f != nil {
			if list := *f.readable.Load(); len(list) > 0 {
				c := list[i%len(list)]
				begin := time.Now()
				members := c.Members()
				took := time.Since(begin)
				if len(members) == 0 {
					r.acct.violate("Members() of %s returned no members", c.Addr())
				}
				r.mu.Lock()
				if r.f == f {
					r.lat = append(r.lat, float64(took.Nanoseconds())/1e3)
				}
				r.mu.Unlock()
			}
		}
		tick.Reset(readerPause)
		select {
		case <-r.quit:
			return
		case <-tick.C:
		}
	}
}

func (r *reader) stop() {
	r.once.Do(func() { close(r.quit) })
	<-r.done
}
