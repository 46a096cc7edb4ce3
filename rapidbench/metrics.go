package main

// endToEndNames are the metrics a user of the membership service sees that
// every workload measures (see BENCHMARK.json for their meaning). The
// human-readable report adds bootstrap_s (one bootstrap of tcp-50 takes
// 0.03, 0.5 or 1.5 s depending on how many joiners the first view change
// admits, too few set-ups per run for a steady median; setup_s carries it),
// read_p99_us (too noisy beside a CPU-bound bootstrap), join_p99_s where
// the joins support it, and remove_p50_s, remove_p99_s and idle_cpu_cores
// where the workload has them: the bootstrap workload rebuilds its cluster
// for every measurement and has no idle window or removal.
var endToEndNames = []string{
	"setup_s", "join_p50_s", "cpu_s", "alloc_mb", "live_heap_mb", "read_p50_us",
}

// tracedEndToEnd are the end-to-end metrics the traced run repeats under the
// "traced." prefix, so traced minus untraced is the tracing overhead.
var tracedEndToEnd = []string{"bootstrap_s", "join_p50_s", "cpu_s", "alloc_mb"}

// liveKinds are the message kinds every workload sends; per-kind metrics
// cover these.
var liveKinds = []string{"probe", "alerts_votes", "prejoin", "join"}

// perLayerNames are the traced run's metrics, one or more per layer.
var perLayerNames = func() []string {
	names := []string{
		"view.new_with_members_ms", "view.new_with_members_kb",
		"view.members_us", "view.add_member_us", "view.remove_member_us",
		"cutdetect.aggregate_ns", "cutdetect.invalidate_us",
		"fastpaxos.quorum_us", "fastpaxos.classical_rounds",
		"core.events_per_member", "core.shed_batches",
		"core.view_changes_per_member", "core.batch_size_mean",
		"core.join_attempts_per_member", "core.notify_spread_ms", "core.notifier_coalesced",
		"core.members_allocs",
		"broadcast.fanout",
		"edgefd.probes_per_s", "edgefd.probe_fail_ratio", "edgefd.cpu_us_per_probe",
		"transport.msgs_per_change",
		"tcpnet.requests_per_dial", "tcpnet.dial_errors", "tcpnet.be_dropped",
		"runtime.gc_cycles", "runtime.gc_pause_ms", "runtime.goroutines_peak",
	}
	for _, k := range liveKinds {
		names = append(names,
			"core.handle_p50_us."+k, "core.handle_p99_us."+k,
			"remoting.encode_ns."+k, "remoting.decode_ns."+k, "remoting.bytes."+k,
			"transport.msgs."+k,
			"simnet.send_p50_us."+k,
			"tcpnet.send_p50_us."+k, "tcpnet.send_p99_us."+k)
	}
	for _, name := range tracedEndToEnd {
		names = append(names, "traced."+name)
	}
	return names
}()

// endToEnd reduces a run to the end-to-end metrics.
func (w workload) endToEnd(rep *report, m *measured) {
	var cpu, alloc []float64
	for _, d := range m.reps {
		cpu = append(cpu, d.cpu.Seconds())
		alloc = append(alloc, d.allocMB)
	}
	rep.set("setup_s", "s", median(m.setup), len(m.setup))
	rep.set("bootstrap_s", "s", median(m.bootstrap), len(m.bootstrap))
	if w.Storm {
		rep.set("join_p50_s", "s", median(m.joinMedians), len(m.joins))
		rep.set("join_p99_s", "s", percentile(m.joins, 99), len(m.joins))
	} else {
		rep.set("join_p50_s", "s", median(m.joins), len(m.joins))
		rep.set("remove_p50_s", "s", median(m.removes), len(m.removes))
		rep.set("remove_p99_s", "s", percentile(m.removes, 99), len(m.removes))
		rep.set("idle_cpu_cores", "cores", m.idle.cpu.Seconds()/m.idle.wall.Seconds(), 0)
	}
	rep.set("cpu_s", "s", median(cpu), len(cpu))
	rep.set("alloc_mb", "MB", median(alloc), len(alloc))
	rep.set("live_heap_mb", "MB", median(m.liveHeap), len(m.liveHeap))
	readP50 := median(m.reads)
	if w.Storm {
		readP50 = median(m.readMedians)
	}
	rep.set("read_p50_us", "us", readP50, len(m.reads))
	rep.set("read_p99_us", "us", percentile(m.reads, 99), len(m.reads))
}

// perLayer adds the traced run's per-layer metrics: live counts and spans
// from the interposer and the engine's counters, then a replay of each
// layer's public functions at the workload's sizes.
func (w workload) perLayer(rep *report, m *measured, rec *recorder) error {
	for _, name := range tracedEndToEnd {
		if v, ok := rep.metrics[name]; ok {
			rep.set("traced."+name, v.Unit, v.Value, rep.samples[name])
		}
	}
	members := float64(max(m.engine.members, 1))
	e := m.engine
	rep.set("core.events_per_member", "count", float64(e.events)/members, e.members)
	rep.set("core.queue_full_s", "s", e.queueFull.Seconds(), 0)
	rep.set("core.shed_batches", "count", float64(e.shed), 0)
	rep.set("core.view_changes_per_member", "count", float64(e.viewChanges)/members, e.members)
	batchMean := 0.0
	if e.batchCount > 0 {
		batchMean = e.batchSum / float64(e.batchCount)
	}
	rep.set("core.batch_size_mean", "count", batchMean, int(e.batchCount))
	rep.set("core.notify_spread_ms", "ms", median(m.spreads), len(m.spreads))
	rep.set("core.notifier_coalesced", "count", float64(e.coalesced), 0)

	sends := func(k string) int64 {
		if m.msgs != nil {
			return m.msgs[k]
		}
		return rec.send[k].count.Load()
	}
	rep.set("core.join_attempts_per_member", "ratio", float64(sends("prejoin"))/float64(max(m.joined, 1)), m.joined)
	rep.set("broadcast.fanout", "ratio", float64(sends("alerts_votes"))/float64(max(e.batches, 1)), int(e.batches))
	rep.set("fastpaxos.classical_rounds", "count", float64(sends("phase1a")), 0)
	total := m.msgs["all"]
	if m.msgs == nil {
		for _, k := range kinds {
			total += rec.send[k].count.Load()
		}
	}
	wall := m.whole.wall.Seconds()
	rep.set("transport.msgs_per_change", "count", float64(total)/float64(max(m.configs, 1)), m.configs)
	for _, k := range liveKinds {
		rep.set("transport.msgs."+k, "1/s", float64(sends(k))/wall, 0)
		h := rec.handle[k].durations()
		rep.set("core.handle_p50_us."+k, "us", median(h)/1e3, len(h))
		rep.set("core.handle_p99_us."+k, "us", percentile(h, 99)/1e3, len(h))
	}

	probes := float64(sends("probe"))
	rep.set("edgefd.probes_per_s", "1/s", probes/wall/float64(w.N), 0)
	rep.set("edgefd.probe_fail_ratio", "ratio", float64(rec.send["probe"].errors.Load())/max(probes, 1), int(probes))
	// Idle CPU per probe: the fault-free window runs nothing but probing.
	// The bootstrap workload has no such window; there it is the measured
	// phase's CPU per probe, an upper bound.
	perProbe := m.whole.cpu.Seconds() / max(probes, 1) * 1e6
	if !w.Storm {
		perProbe = m.idle.cpu.Seconds() / float64(max(m.idleProbes, 1)) * 1e6
	}
	rep.set("edgefd.cpu_us_per_probe", "us", perProbe, 0)

	rep.set("runtime.gc_cycles", "count", float64(m.whole.gcCycles), 0)
	rep.set("runtime.gc_pause_ms", "ms", m.whole.gcPauseMS, 0)
	peak := m.peakG
	if m.last != nil {
		peak = max(peak, m.last.peakG.Load())
	}
	rep.set("runtime.goroutines_peak", "count", float64(peak), 0)

	live := w.Transport == "tcp"
	if live {
		rep.set("tcpnet.requests_per_dial", "ratio", float64(m.tcp.Requests)/float64(max(m.tcp.Dials, 1)), int(m.tcp.Dials))
		rep.set("tcpnet.dial_errors", "count", float64(m.tcp.DialErrors), 0)
		rep.set("tcpnet.be_dropped", "count", float64(m.tcp.BestEffortDropped), 0)
		for _, k := range liveKinds {
			s := rec.send[k].durations()
			rep.set("tcpnet.send_p50_us."+k, "us", median(s)/1e3, len(s))
			rep.set("tcpnet.send_p99_us."+k, "us", percentile(s, 99)/1e3, len(s))
		}
	} else {
		for _, k := range liveKinds {
			s := rec.send[k].durations()
			rep.set("simnet.send_p50_us."+k, "us", median(s)/1e3, len(s))
		}
	}
	return replayLayers(rep, w, rec, m.last)
}
