package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simclock"
	"repro/internal/simnet"
)

// armClock is a manual clock that records the deadline of every Reset of the
// timers it hands out. The engine's flush timer is the only Timer user in
// core, so the recorded deadlines are exactly its re-arms.
type armClock struct {
	*simclock.Manual
	mu        sync.Mutex
	timer     simclock.Timer
	deadlines []time.Time
}

func (a *armClock) Timer(d time.Duration) simclock.Timer {
	t := &armTimer{Timer: a.Manual.Timer(d), clk: a}
	a.mu.Lock()
	a.timer = t
	a.mu.Unlock()
	return t
}

// rearms returns the deadlines of every re-arm so far.
func (a *armClock) rearms() []time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]time.Time(nil), a.deadlines...)
}

// tickPending reports whether a fired flush tick is still waiting in the
// timer's channel for the engine to receive it.
func (a *armClock) tickPending() bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.timer != nil && len(a.timer.C()) > 0
}

type armTimer struct {
	simclock.Timer
	clk *armClock
}

func (t *armTimer) Reset(d time.Duration) {
	t.clk.mu.Lock()
	t.clk.deadlines = append(t.clk.deadlines, t.clk.Now().Add(d))
	t.clk.mu.Unlock()
	t.Timer.Reset(d)
}

// startIdleTestCluster starts a single-member cluster on an armClock whose
// flush window starts at its floor, and waits until the engine armed its
// flush timer and reinforcement ticker.
func startIdleTestCluster(t *testing.T, s Settings) (*Cluster, *armClock) {
	t.Helper()
	clk := &armClock{Manual: simclock.NewManual(time.Unix(0, 0))}
	s.Clock = clk
	s.BatchingWindow = 10 * time.Millisecond
	s.BatchingWindowMin = 10 * time.Millisecond
	s.BatchingWindowMax = 160 * time.Millisecond
	c, err := StartCluster("seed:1", s, simnet.New(simnet.Options{Seed: 77}))
	if err != nil {
		t.Fatalf("StartCluster: %v", err)
	}
	t.Cleanup(func() {
		go clk.Advance(time.Hour)
		c.Stop()
	})
	if !waitUntil(t, 5*time.Second, func() bool { return clk.PendingWaiters() >= 2 }) {
		t.Fatal("engine never armed its timers")
	}
	return c, clk
}

// settle returns once the engine has received every fired flush tick and
// finished the loop iteration handling it: a phase-1 join round trip goes
// through the priority queue, which the engine serves only between
// iterations. It leaves no protocol state behind.
func settle(t *testing.T, c *Cluster, clk *armClock) {
	t.Helper()
	if !waitUntil(t, 5*time.Second, func() bool { return !clk.tickPending() }) {
		t.Fatal("engine did not receive the flush tick")
	}
	resp, err := c.HandleRequest(context.Background(), "barrier:1", preJoinRequest("barrier:1", node.NewID()))
	if err != nil || resp.PreJoin == nil {
		t.Fatalf("barrier pre-join failed: %v", err)
	}
}

// tick fires one flush window and reports whether the engine re-armed.
func tick(t *testing.T, c *Cluster, clk *armClock, window time.Duration) bool {
	t.Helper()
	before := len(clk.rearms())
	clk.Advance(window)
	settle(t, c, clk)
	return len(clk.rearms()) > before
}

// TestIdleEngineSleeps pins the flush timer's sleep rule: an engine idle at
// the floor stops arming its flush timer, wakes when a dispatch leaves it
// something to flush, and then flushes on the grid of ticks it skipped.
func TestIdleEngineSleeps(t *testing.T) {
	t.Run("unicast", testIdleSleepAndWake)
	t.Run("gossip rumors", testIdleSleepAfterRumors)
}

func testIdleSleepAndWake(t *testing.T) {
	s := DefaultSettings()
	c, clk := startIdleTestCluster(t, s)
	const floor = 10 * time.Millisecond

	// One quiet tick at the floor puts the engine to sleep: the flush timer
	// is not re-armed, and only the reinforcement ticker is left waiting.
	if tick(t, c, clk, floor) {
		t.Fatal("a quiet tick at the floor re-armed the flush timer")
	}
	sleptAt := clk.Now()
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("sleeping engine should leave only the reinforcement ticker pending, got %d waiters", got)
	}

	// Many windows later (crossing reinforcement ticks) it still sleeps.
	for i := 0; i < 150; i++ {
		if tick(t, c, clk, floor) {
			t.Fatalf("sleeping engine re-armed its flush timer on window %d", i)
		}
	}
	if got := c.Stats().BatchWindow; got != floor {
		t.Fatalf("window left the floor while asleep: %v", got)
	}
	if got := clk.PendingWaiters(); got != 1 {
		t.Fatalf("sleeping engine armed a timer: %d waiters pending", got)
	}
	clk.Advance(3 * time.Millisecond)

	// One inbound batch wakes it, on the skipped-tick grid: the next flush is
	// due at the next sleptAt + k·floor, 7 ms away, not a full window later.
	configID := c.ConfigurationID()
	if _, err := c.HandleRequest(context.Background(), "storm:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
		Sender: "storm:1",
		Seq:    1,
		Alerts: []remoting.AlertMessage{{
			EdgeSrc:         "storm:1",
			EdgeDst:         "ghost:1",
			Status:          remoting.EdgeDown,
			ConfigurationID: configID,
			RingNumbers:     []int{0},
		}},
	}}); err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(clk.rearms()) == 1 }) {
		t.Fatal("an inbound batch did not wake the sleeping engine")
	}
	wake := clk.rearms()[0]
	if want := clk.Now().Add(7 * time.Millisecond); !wake.Equal(want) || wake.Sub(sleptAt)%floor != 0 {
		t.Fatalf("wake armed for %v after sleep, want %v (the skipped-tick grid)", wake.Sub(sleptAt), want.Sub(sleptAt))
	}
	// The tick on the grid counts the arrival, so it re-arms once more; the
	// one after it is quiet again and the engine goes back to sleep.
	if !tick(t, c, clk, 7*time.Millisecond) {
		t.Fatal("the first tick after waking should re-arm (it counted an arrival)")
	}
	if tick(t, c, clk, floor) {
		t.Fatal("engine did not go back to sleep after the woken window")
	}

	// A phase-2 join reaching the sleeping engine must still get its JOIN
	// alerts flushed and the joiner admitted.
	joinerID := node.NewID()
	pre, err := c.HandleRequest(context.Background(), "joiner:1", preJoinRequest("joiner:1", joinerID))
	if err != nil || pre.PreJoin.Status != remoting.JoinSafeToJoin {
		t.Fatalf("pre-join: %v %+v", err, pre)
	}
	sleptAt = clk.Now()
	clk.Advance(4 * time.Millisecond)
	armsBefore := len(clk.rearms())
	joined := make(chan *remoting.Response, 1)
	go func() {
		resp, _ := c.HandleRequest(context.Background(), "joiner:1", &remoting.Request{Join: &remoting.JoinRequest{
			Sender:          "joiner:1",
			JoinerID:        joinerID,
			ConfigurationID: pre.PreJoin.ConfigurationID,
		}})
		joined <- resp
	}()
	if !waitUntil(t, 5*time.Second, func() bool { return len(clk.rearms()) > armsBefore }) {
		t.Fatal("a phase-2 join did not wake the sleeping engine")
	}
	if wake := clk.rearms()[armsBefore]; wake.Sub(sleptAt) != floor {
		t.Fatalf("join wake armed for %v after sleep, want %v", wake.Sub(sleptAt), floor)
	}
	clk.Advance(6 * time.Millisecond)
	for i := 0; ; i++ {
		select {
		case resp := <-joined:
			if resp == nil || resp.Join == nil || resp.Join.Status != remoting.JoinSafeToJoin {
				t.Fatalf("joiner not admitted: %+v", resp)
			}
			if c.Size() != 2 {
				t.Fatalf("view has %d members after the join, want 2", c.Size())
			}
			return
		case <-time.After(20 * time.Millisecond):
		}
		if i == 100 {
			t.Fatal("joiner was never admitted")
		}
		clk.Advance(floor)
	}
}

// testIdleSleepAfterRumors checks that in gossip mode buffered rumors keep
// the flush timer armed until their last round, and only then let the engine
// sleep.
func testIdleSleepAfterRumors(t *testing.T) {
	s := DefaultSettings()
	s.Broadcast = BroadcastGossip
	s.GossipRounds = 5
	c, clk := startIdleTestCluster(t, s)
	const floor = 10 * time.Millisecond
	if tick(t, c, clk, floor) {
		t.Fatal("a quiet tick at the floor re-armed the flush timer")
	}

	// An unseen gossip batch is pushed once on receipt and buffered for
	// GossipRounds-1 further rounds, one per flush tick.
	if _, err := c.HandleRequest(context.Background(), "storm:1", &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
		Sender: "storm:1",
		Seq:    1,
		Alerts: []remoting.AlertMessage{{
			EdgeSrc:         "storm:1",
			EdgeDst:         "ghost:1",
			Status:          remoting.EdgeDown,
			ConfigurationID: c.ConfigurationID(),
			RingNumbers:     []int{0},
		}},
	}}); err != nil {
		t.Fatalf("HandleRequest: %v", err)
	}
	if !waitUntil(t, 5*time.Second, func() bool { return len(clk.rearms()) == 1 }) {
		t.Fatal("an inbound gossip batch did not wake the sleeping engine")
	}
	for round := 1; round < s.GossipRounds; round++ {
		if !tick(t, c, clk, floor) {
			t.Fatalf("engine slept with rumors left after round %d", round)
		}
	}
	if tick(t, c, clk, floor) {
		t.Fatal("engine kept its flush timer armed after the rumors ran out")
	}
}
