package core

import (
	"context"

	"repro/internal/node"
	"repro/internal/remoting"
)

// HandleRequest implements transport.Handler. Handlers are thin enqueuers:
// protocol messages become typed events on the engine queue and are
// acknowledged immediately, so the transport's dispatch path never takes a
// lock and never touches protocol state. Only the join phases wait for the
// engine's reply, and probes are answered directly from an atomic flag.
func (c *Cluster) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	switch {
	case req == nil:
		return remoting.AckResponse(), nil
	case req.Probe != nil:
		return c.handleProbe(), nil
	case req.PreJoin != nil:
		return c.handlePreJoin(ctx, req.PreJoin), nil
	case req.Join != nil:
		return c.handleJoinPhase2(ctx, req.Join), nil
	case req.Alerts != nil || req.VoteBatch != nil:
		// enqueueBatch sheds stale batches under overload instead of blocking
		// the transport's delivery worker; the batch is acked either way, as
		// best-effort dissemination expects.
		c.enqueueBatch(event{raw: req, batch: req.Alerts, votes: req.VoteBatch, network: true})
		return remoting.AckResponse(), nil
	case req.Leave != nil:
		c.enqueue(event{leave: req.Leave})
		return remoting.AckResponse(), nil
	case req.FastRound != nil:
		c.enqueue(event{fastRound: req.FastRound})
		return remoting.AckResponse(), nil
	case req.P1a != nil:
		c.enqueue(event{p1a: req.P1a})
		return remoting.AckResponse(), nil
	case req.P1b != nil:
		c.enqueue(event{p1b: req.P1b})
		return remoting.AckResponse(), nil
	case req.P2a != nil:
		c.enqueue(event{p2a: req.P2a})
		return remoting.AckResponse(), nil
	case req.P2b != nil:
		c.enqueue(event{p2b: req.P2b})
		return remoting.AckResponse(), nil
	default:
		return remoting.AckResponse(), nil
	}
}

// handleProbe answers an edge failure detector probe without involving the
// engine: probe latency is what failure detection is calibrated against, so
// it must not queue behind protocol work.
func (c *Cluster) handleProbe() *remoting.Response {
	if !c.started.Load() {
		return c.probeBootstrapping
	}
	return c.probeOK
}

// handlePreJoin forwards phase 1 of the join protocol to the engine and waits
// for its answer; the topology lookup needs a consistent ring view.
func (c *Cluster) handlePreJoin(ctx context.Context, msg *remoting.PreJoinRequest) *remoting.Response {
	busy := &remoting.Response{PreJoin: &remoting.PreJoinResponse{
		Sender: c.me.Addr,
		Status: remoting.JoinViewChangeInProgress,
	}}
	if !c.started.Load() {
		return busy
	}
	reply := make(chan *remoting.PreJoinResponse, 1)
	if !c.enqueuePriority(event{preJoin: &preJoinEvent{msg: msg, reply: reply}}) {
		return busy
	}
	select {
	case resp := <-reply:
		return &remoting.Response{PreJoin: resp}
	case <-ctx.Done():
		return busy
	case <-c.stopCh:
		return busy
	}
}

// handleJoinPhase2 forwards phase 2 of the join protocol to the engine. The
// engine either answers immediately or parks the reply until the view change
// that admits the joiner; this handler enforces the caller-facing timeouts.
func (c *Cluster) handleJoinPhase2(ctx context.Context, msg *remoting.JoinRequest) *remoting.Response {
	if !c.started.Load() {
		return joinResponse(c.me.Addr, remoting.JoinViewChangeInProgress, 0, nil)
	}
	reply := make(chan *remoting.JoinResponse, 1)
	if !c.enqueuePriority(event{join: &joinEvent{msg: msg, reply: reply}}) {
		return joinResponse(c.me.Addr, remoting.JoinViewChangeInProgress, c.ConfigurationID(), nil)
	}
	select {
	case resp := <-reply:
		return &remoting.Response{Join: resp}
	case <-ctx.Done():
	case <-c.clock.After(c.settings.JoinPhase2Timeout):
	case <-c.stopCh:
	}
	return joinResponse(c.me.Addr, remoting.JoinViewChangeInProgress, c.ConfigurationID(), nil)
}

func joinResponse(sender node.Addr, status remoting.JoinStatus, configID uint64, members []node.Endpoint) *remoting.Response {
	return &remoting.Response{Join: &remoting.JoinResponse{
		Sender:          sender,
		Status:          status,
		ConfigurationID: configID,
		Members:         members,
	}}
}
