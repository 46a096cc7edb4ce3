package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/cutdetect"
	"repro/internal/fastpaxos"
	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/tcpnet"
	"repro/internal/transport"
	"repro/internal/view"
)

// The replay stage of the traced run times each layer's public functions
// at the workload's sizes, after the measured phase so it disturbs nothing.
// The transport that a workload does not run live (tcpnet on simnet
// workloads, simnet on the TCP workload) is replayed with the requests the
// workload actually sent, so every workload reports every per-layer metric.

const (
	viewK, cutH, cutL = 10, 9, 3
	replayBudget      = 150 * time.Millisecond
	replaySends       = 1000
)

// timed calls fn repeatedly for about budget (at least minReps times) and
// returns the nanoseconds each call took.
func timed(budget time.Duration, minReps int, fn func()) []float64 {
	var out []float64
	begin := time.Now()
	for len(out) < minReps || time.Since(begin) < budget {
		t := time.Now()
		fn()
		out = append(out, float64(time.Since(t).Nanoseconds()))
	}
	return out
}

// allocatedPerCall is the heap bytes and objects one call of fn allocates.
func allocatedPerCall(reps int, fn func()) (bytes, objects float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(reps), float64(after.Mallocs-before.Mallocs) / float64(reps)
}

func replayEndpoints(n int) []node.Endpoint {
	rng := rand.New(rand.NewSource(int64(n)))
	eps := make([]node.Endpoint, n)
	for i := range eps {
		eps[i] = node.Endpoint{Addr: node.Addr(fmt.Sprintf("m%05d:9000", i)), ID: node.NewIDFromRand(rng)}
	}
	return eps
}

func replayLayers(rep *report, w workload, rec *recorder, lastFleet *fleet) error {
	eps := replayEndpoints(w.N)
	replayView(rep, eps)
	replayCutDetect(rep, eps)
	replayFastPaxos(rep, eps)
	replayCodec(rep, rec)
	replayMembersAllocs(rep, lastFleet)
	if w.Transport == "tcp" {
		return replaySimnet(rep, rec)
	}
	return replayTCP(rep, rec)
}

func replayView(rep *report, eps []node.Endpoint) {
	var v *view.View
	build := timed(replayBudget, 3, func() { v = view.NewWithMembers(viewK, eps) })
	rep.set("view.new_with_members_ms", "ms", median(build)/1e6, len(build))
	kb, _ := allocatedPerCall(3, func() { view.NewWithMembers(viewK, eps) })
	rep.set("view.new_with_members_kb", "KB", kb/1024, 3)
	members := timed(replayBudget, 10, func() { v.Members() })
	rep.set("view.members_us", "us", median(members)/1e3, len(members))

	// A view never readmits an identifier it has seen, so every add uses a
	// fresh endpoint.
	base := view.NewWithMembers(viewK, eps)
	rng := rand.New(rand.NewSource(1))
	var adds, removes []float64
	begin := time.Now()
	for i := 0; len(adds) < 10 || time.Since(begin) < replayBudget; i++ {
		extra := node.Endpoint{Addr: node.Addr(fmt.Sprintf("x%07d:9000", i)), ID: node.NewIDFromRand(rng)}
		t := time.Now()
		if err := base.AddMember(extra); err != nil {
			panic(fmt.Sprintf("view replay: %v", err))
		}
		adds = append(adds, float64(time.Since(t).Nanoseconds()))
		t = time.Now()
		if err := base.RemoveMember(extra.Addr); err != nil {
			panic(fmt.Sprintf("view replay: %v", err))
		}
		removes = append(removes, float64(time.Since(t).Nanoseconds()))
	}
	rep.set("view.add_member_us", "us", median(adds)/1e3, len(adds))
	rep.set("view.remove_member_us", "us", median(removes)/1e3, len(removes))
}

// replayCutDetect feeds K REMOVE alerts per subject (a one-subject cut that
// crosses H) and times each AggregateForProposal call; then it leaves two
// subjects between L and H and times InvalidateFailingEdges at N.
func replayCutDetect(rep *report, eps []node.Endpoint) {
	v := view.NewWithMembers(viewK, eps)
	const configID = 1
	alertsFor := func(subject node.Endpoint) []remoting.AlertMessage {
		observers, err := v.ObserversOf(subject.Addr)
		if err != nil {
			panic(fmt.Sprintf("cutdetect replay: %v", err))
		}
		out := make([]remoting.AlertMessage, len(observers))
		for r, o := range observers {
			out[r] = remoting.AlertMessage{EdgeSrc: o, EdgeDst: subject.Addr, Status: remoting.EdgeDown, ConfigurationID: configID, RingNumbers: []int{r}}
		}
		return out
	}
	now := time.Now()
	var agg []float64
	begin := time.Now()
	for i := 0; len(agg) < 100 || time.Since(begin) < replayBudget; i++ {
		subject := eps[i%len(eps)]
		alerts := alertsFor(subject)
		d := cutdetect.New(viewK, cutH, cutL)
		t := time.Now()
		for _, a := range alerts {
			d.AggregateForProposal(a, subject, now)
		}
		agg = append(agg, float64(time.Since(t).Nanoseconds())/float64(len(alerts)))
	}
	rep.set("cutdetect.aggregate_ns", "ns", median(agg), len(agg))

	var inv []float64
	begin = time.Now()
	for i := 0; len(inv) < 10 || time.Since(begin) < replayBudget; i++ {
		d := cutdetect.New(viewK, cutH, cutL)
		for j := 0; j < 2; j++ {
			subject := eps[(2*i+j)%len(eps)]
			for _, a := range alertsFor(subject)[:cutL+1] {
				d.AggregateForProposal(a, subject, now)
			}
		}
		t := time.Now()
		d.InvalidateFailingEdges(v, now)
		inv = append(inv, float64(time.Since(t).Nanoseconds()))
	}
	rep.set("cutdetect.invalidate_us", "us", median(inv)/1e3, len(inv))
}

// replayFastPaxos counts identical votes up to the fast quorum at N.
func replayFastPaxos(rep *report, eps []node.Endpoint) {
	n := len(eps)
	proposal := []node.Endpoint{eps[n-1]}
	votes := make([]*remoting.FastRoundPhase2b, n)
	for i, ep := range eps {
		votes[i] = &remoting.FastRoundPhase2b{Sender: ep.Addr, ConfigurationID: 1, Proposal: proposal}
	}
	var quorum []float64
	begin := time.Now()
	for len(quorum) < 5 || time.Since(begin) < replayBudget {
		decided := false
		fp := fastpaxos.New(fastpaxos.Config{
			MyAddr: eps[0].Addr, MembershipSize: n, ConfigurationID: 1,
			VoteSink: func(*remoting.FastRoundPhase2b) {},
			OnDecide: func([]node.Endpoint) { decided = true },
		})
		t := time.Now()
		for _, v := range votes {
			fp.HandleFastRoundVote(v)
			if decided {
				break
			}
		}
		quorum = append(quorum, float64(time.Since(t).Nanoseconds()))
		if !decided {
			panic("fastpaxos replay: no decision with every vote identical")
		}
	}
	rep.set("fastpaxos.quorum_us", "us", median(quorum)/1e3, len(quorum))
}

// replayRequests returns the requests of one kind the workload sent, or a
// representative one if the run sent none.
func replayRequests(rec *recorder, kind string) []*remoting.Request {
	if reqs := rec.send[kind].requests(); len(reqs) > 0 {
		return reqs
	}
	src := node.Addr("m00000:9000")
	switch kind {
	case "probe":
		return []*remoting.Request{{Probe: &remoting.ProbeRequest{Sender: src}}}
	case "prejoin":
		return []*remoting.Request{{PreJoin: &remoting.PreJoinRequest{Sender: src}}}
	case "join":
		return []*remoting.Request{{Join: &remoting.JoinRequest{Sender: src}}}
	default:
		return []*remoting.Request{{Alerts: &remoting.BatchedAlertMessage{Sender: src, Alerts: []remoting.AlertMessage{{EdgeSrc: src, EdgeDst: "m00001:9000", RingNumbers: []int{0}}}}}}
	}
}

// replayCodec encodes and decodes the requests the workload sent.
func replayCodec(rep *report, rec *recorder) {
	for _, k := range liveKinds {
		reqs := replayRequests(rec, k)
		encoded := make([][]byte, len(reqs))
		size := 0.0
		for i, r := range reqs {
			b, err := remoting.EncodeRequest(r)
			if err != nil {
				panic(fmt.Sprintf("codec replay: encode %s: %v", k, err))
			}
			encoded[i] = b
			size += float64(len(b))
		}
		i := 0
		enc := timed(replayBudget/4, 100, func() {
			remoting.EncodeRequest(reqs[i%len(reqs)])
			i++
		})
		i = 0
		dec := timed(replayBudget/4, 100, func() {
			if _, err := remoting.DecodeRequest(encoded[i%len(encoded)]); err != nil {
				panic(fmt.Sprintf("codec replay: decode %s: %v", k, err))
			}
			i++
		})
		rep.set("remoting.encode_ns."+k, "ns", median(enc), len(enc))
		rep.set("remoting.decode_ns."+k, "ns", median(dec), len(dec))
		rep.set("remoting.bytes."+k, "B", size/float64(len(reqs)), len(reqs))
	}
}

// replayMembersAllocs counts the allocations of one Members() read on a
// member of the workload's last cluster (its snapshot outlives Stop).
func replayMembersAllocs(rep *report, f *fleet) {
	var c *core.Cluster
	if f != nil {
		f.mu.Lock()
		if len(f.stopped) > 0 {
			c = f.stopped[len(f.stopped)-1].c
		}
		f.mu.Unlock()
	}
	if c == nil {
		rep.set("core.members_allocs", "count", 0, 0)
		return
	}
	_, objects := allocatedPerCall(1000, func() { c.Members() })
	rep.set("core.members_allocs", "count", objects, 1000)
}

var ackHandler = transport.HandlerFunc(func(context.Context, node.Addr, *remoting.Request) (*remoting.Response, error) {
	return remoting.AckResponse(), nil
})

// sendAll replays each kind through a client the way the engine sends it:
// alert/vote batches best-effort, everything else request/response.
func sendAll(rec *recorder, client transport.Client, to node.Addr) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, k := range liveKinds {
		reqs := replayRequests(rec, k)
		n := replaySends
		if k == "alerts_votes" {
			// Stay below the best-effort queue bound so the replay measures
			// the enqueue, not drops.
			n = 256
		}
		for i := 0; i < n; i++ {
			req := reqs[i%len(reqs)]
			t := time.Now()
			if k == "alerts_votes" {
				client.SendBestEffort(to, req)
			} else {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := client.Send(ctx, to, req)
				cancel()
				if err != nil {
					return nil, fmt.Errorf("replay %s send: %w", k, err)
				}
			}
			out[k] = append(out[k], float64(time.Since(t).Nanoseconds()))
		}
	}
	return out, nil
}

func replaySimnet(rep *report, rec *recorder) error {
	sn := simnet.New(simnet.Options{Seed: 1})
	defer sn.Close()
	dst := node.Addr("replay-dst:9000")
	if err := sn.Register(dst, ackHandler); err != nil {
		return fmt.Errorf("simnet replay: %w", err)
	}
	lat, err := sendAll(rec, sn.Client("replay-src:9000"), dst)
	if err != nil {
		return fmt.Errorf("simnet replay: %w", err)
	}
	for _, k := range liveKinds {
		rep.set("simnet.send_p50_us."+k, "us", median(lat[k])/1e3, len(lat[k]))
	}
	return nil
}

func replayTCP(rep *report, rec *recorder) error {
	srv, err := tcpnet.New(tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("tcpnet replay: %w", err)
	}
	defer srv.Close()
	cli, err := tcpnet.New(tcpnet.Options{})
	if err != nil {
		return fmt.Errorf("tcpnet replay: %w", err)
	}
	defer cli.Close()
	dst, err := freeLoopbackAddr()
	if err != nil {
		return fmt.Errorf("tcpnet replay: %w", err)
	}
	if err := srv.Register(dst, ackHandler); err != nil {
		return fmt.Errorf("tcpnet replay: %w", err)
	}
	lat, err := sendAll(rec, cli.Client("replay-src:9000"), dst)
	if err != nil {
		return fmt.Errorf("tcpnet replay: %w", err)
	}
	for _, k := range liveKinds {
		rep.set("tcpnet.send_p50_us."+k, "us", median(lat[k])/1e3, len(lat[k]))
		rep.set("tcpnet.send_p99_us."+k, "us", percentile(lat[k], 99)/1e3, len(lat[k]))
	}
	st := cli.Stats()
	rep.set("tcpnet.requests_per_dial", "ratio", float64(st.Requests)/float64(max(st.Dials, 1)), int(st.Dials))
	rep.set("tcpnet.dial_errors", "count", float64(st.DialErrors), 0)
	rep.set("tcpnet.be_dropped", "count", float64(st.BestEffortDropped), 0)
	return nil
}
