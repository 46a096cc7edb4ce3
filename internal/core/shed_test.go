package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/simnet"
	"repro/internal/view"
)

// shedTestCluster builds a cluster whose engine is deliberately not started,
// so the event queue fills deterministically, with two published
// configurations: the returned pastID has been moved past, currentID is
// installed.
func shedTestCluster(t *testing.T, queueSize int) (c *Cluster, currentID, pastID uint64) {
	t.Helper()
	net := simnet.New(simnet.Options{Seed: 7})
	s := testSettings()
	s.EventQueueSize = queueSize
	c, err := newCluster("shed:1", s, net)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	v1 := view.NewWithMembers(s.K, []node.Endpoint{{Addr: "shed:1", ID: node.NewID()}})
	c.publishSnapshot(v1, 0)
	v2 := view.NewWithMembers(s.K, []node.Endpoint{
		{Addr: "shed:1", ID: node.NewID()},
		{Addr: "peer:1", ID: node.NewID()},
	})
	c.publishSnapshot(v2, 1)
	return c, v2.ConfigurationID(), v1.ConfigurationID()
}

func alertBatch(configID uint64, seq uint64) *remoting.Request {
	return &remoting.Request{Alerts: &remoting.BatchedAlertMessage{
		Sender: "peer:1",
		Seq:    seq,
		Alerts: []remoting.AlertMessage{{
			EdgeSrc:         "peer:1",
			EdgeDst:         "ghost:1",
			Status:          remoting.EdgeDown,
			ConfigurationID: configID,
			RingNumbers:     []int{0},
		}},
	}}
}

// TestStaleBatchShedAtHighWater drives the transport handler directly against
// a stalled engine. Past the high-water mark (3/4 of EventQueueSize), a batch
// referencing only configurations this process already moved past must be
// dropped and counted without blocking the caller; a batch from an unknown
// (possibly imminent) configuration must stay enqueued while there is room
// and only be shed once the queue is entirely full; and batches with
// current-configuration content must never be shed.
func TestStaleBatchShedAtHighWater(t *testing.T) {
	const queueSize = 8 // high water = 6
	c, currentID, pastID := shedTestCluster(t, queueSize)
	unknownID := currentID + pastID + 1 // matches neither current nor past
	ctx := context.Background()

	// Below the high-water mark past-config batches are enqueued like any
	// other.
	for i := 0; i < 6; i++ {
		if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(pastID, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if stats := c.Stats(); stats.ShedBatches != 0 || stats.QueueDepth != 6 {
		t.Fatalf("no shedding expected below high water: %+v", stats)
	}

	// At the mark, a past-config batch is shed: HandleRequest returns
	// immediately even though the engine is not draining the queue.
	if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(pastID, 100)); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.ShedBatches != 1 || stats.QueueDepth != 6 {
		t.Fatalf("past-config batch should be shed and counted: %+v", stats)
	}

	// An unknown-configuration batch is not shed while the queue has room:
	// it may become applicable once a queued decision installs its
	// configuration.
	if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(unknownID, 101)); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.ShedBatches != 1 || stats.QueueDepth != 7 {
		t.Fatalf("unknown-config batch should be enqueued while there is room: %+v", stats)
	}

	// A current-configuration batch is never shed: it must land in the queue.
	if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(currentID, 102)); err != nil {
		t.Fatal(err)
	}
	if stats := c.Stats(); stats.ShedBatches != 1 || stats.QueueDepth != 8 {
		t.Fatalf("current-configuration batch must be enqueued, not shed: %+v", stats)
	}

	// The queue is now entirely full: an unknown-config batch is shed here —
	// the alternative would block the transport worker.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.HandleRequest(ctx, "peer:1", alertBatch(unknownID, 103))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("unknown-config batch blocked on a full queue instead of being shed")
	}
	if stats := c.Stats(); stats.ShedBatches != 2 || stats.QueueDepth != 8 {
		t.Fatalf("unknown-config batch on full queue should be shed: %+v", stats)
	}

	// A mixed batch (one past alert, one current) counts as current and is
	// exempt from both shedding tiers; on the full queue it blocks until the
	// cluster stops (asserted by TestQueueFullTimeAccounted with a drain).
	mixed := alertBatch(pastID, 104)
	mixed.Alerts.Alerts = append(mixed.Alerts.Alerts, alertBatch(currentID, 104).Alerts.Alerts...)
	if c.staleBatch(event{batch: mixed.Alerts}, true) {
		t.Fatal("a batch with current-configuration content must never be sheddable")
	}

	// Past-config vote batches shed too: consensus votes are
	// configuration-scoped and never revisited.
	votes := &remoting.Request{VoteBatch: &remoting.FastRoundVoteBatch{
		Sender: "peer:1",
		Seq:    105,
		Votes:  []remoting.FastRoundPhase2b{{Sender: "peer:1", ConfigurationID: pastID}},
	}}
	done2 := make(chan struct{})
	go func() {
		defer close(done2)
		_, _ = c.HandleRequest(ctx, "peer:1", votes)
	}()
	select {
	case <-done2:
	case <-time.After(5 * time.Second):
		t.Fatal("past-config vote batch blocked instead of being shed")
	}
	if stats := c.Stats(); stats.ShedBatches != 3 {
		t.Fatalf("past-config vote batch should be shed: %+v", stats)
	}
}

// TestQueueFullTimeAccounted verifies that blocking backpressure on the
// non-sheddable path is surfaced in EngineStats.QueueFullTime.
func TestQueueFullTimeAccounted(t *testing.T) {
	const queueSize = 4
	c, currentID, _ := shedTestCluster(t, queueSize)
	ctx := context.Background()
	for i := 0; i < queueSize; i++ {
		if _, err := c.HandleRequest(ctx, "peer:1", alertBatch(currentID, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	// The queue is full; the next current-configuration batch blocks until
	// the engine drains it — here we drain manually from the test.
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _ = c.HandleRequest(ctx, "peer:1", alertBatch(currentID, 99))
	}()
	time.Sleep(50 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("enqueue should have blocked on the full queue")
	default:
	}
	<-c.events // make room; the blocked producer completes
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("blocked producer never completed after the queue drained")
	}
	if got := c.Stats().QueueFullTime; got < 25*time.Millisecond {
		t.Fatalf("QueueFullTime %v should reflect the blocked enqueue", got)
	}
}
