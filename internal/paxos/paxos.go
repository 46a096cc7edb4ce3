// Package paxos implements the classical single-decree Paxos protocol used as
// Rapid's recovery path (§4.3). Every process acts as proposer, acceptor and
// learner for a single consensus instance per configuration; the value being
// agreed on is a membership-change proposal (a sorted list of endpoints).
//
// The recovery path interoperates with the Fast Paxos fast path: fast-round
// votes are recorded as acceptances at rank (1,1), and the coordinator's
// value-selection rule follows Fast Paxos — among the highest-ranked values
// reported by a quorum, a value that could have been chosen in the fast round
// (one appearing more than N/4 times) must be preferred.
package paxos

import (
	"slices"
	"strings"
	"sync"

	"repro/internal/node"
	"repro/internal/remoting"
)

// Sender delivers a message directly to one process, best-effort.
type Sender interface {
	SendBestEffort(to node.Addr, req *remoting.Request)
}

// Broadcaster delivers a message to every member of the configuration.
type Broadcaster interface {
	Broadcast(req *remoting.Request)
}

// Value is a membership-change proposal: endpoints to add or remove.
type Value = []node.Endpoint

// Key returns a canonical string identity for a proposal so identical
// proposals compare equal regardless of slice ordering: the "addr|id" parts
// of its endpoints (see node.ID.String), sorted and joined by ','. The
// classical path breaks ties on Key order, so the format is pinned by a
// golden test.
func Key(v Value) string {
	parts := make([]string, len(v))
	var buf []byte
	for i, ep := range v {
		buf = append(append(buf[:0], ep.Addr...), '|')
		parts[i] = string(ep.ID.Append(buf))
	}
	slices.Sort(parts)
	return strings.Join(parts, ",")
}

// fastRoundRank is the rank that fast-round (Fast Paxos) votes occupy.
var fastRoundRank = remoting.Rank{Round: 1, NodeIndex: 1}

// Config carries the static parameters of one Paxos instance.
type Config struct {
	// MyAddr is this process' address.
	MyAddr node.Addr
	// MyIndex is this process' index in the sorted membership, used to build
	// unique ranks.
	MyIndex int
	// MembershipSize is N, the number of processes in the configuration.
	MembershipSize int
	// ConfigurationID stamps all messages.
	ConfigurationID uint64
	// Client sends direct responses (phase 1b back to the coordinator).
	Client Sender
	// Broadcaster sends phase 1a/2a/2b messages to the whole membership.
	Broadcaster Broadcaster
	// OnDecide is invoked exactly once with the decided value.
	OnDecide func(Value)
}

// Paxos is one single-decree instance. All methods are safe for concurrent use.
type Paxos struct {
	cfg Config

	mu sync.Mutex
	// Proposer state.
	crnd            remoting.Rank
	cval            Value
	myProposal      Value
	phase1bMessages []remoting.Phase1b
	phase2aSent     bool
	// Acceptor state.
	rnd  remoting.Rank
	vrnd remoting.Rank
	vval Value
	// Learner state.
	accepted map[remoting.Rank]map[node.Addr]bool
	values   map[remoting.Rank]Value
	decided  bool
}

// New creates a Paxos instance.
func New(cfg Config) *Paxos {
	return &Paxos{
		cfg:      cfg,
		accepted: make(map[remoting.Rank]map[node.Addr]bool),
		values:   make(map[remoting.Rank]Value),
	}
}

// majority returns the size of a majority quorum for N processes.
func majority(n int) int { return n/2 + 1 }

// Decided reports whether this instance has reached a decision.
func (p *Paxos) Decided() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.decided
}

// SetProposal records the value this process will propose if it becomes the
// coordinator of a recovery round and no prior value must be preserved.
func (p *Paxos) SetProposal(v Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.myProposal = v
}

// RegisterFastRoundVote records this process' own fast-round vote so that a
// later recovery round observes it through phase 1b, preserving Fast Paxos
// safety. It has no effect if the acceptor already promised a higher rank.
func (p *Paxos) RegisterFastRoundVote(v Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.rnd.Less(fastRoundRank) || p.rnd.Equal(remoting.Rank{}) {
		p.rnd = fastRoundRank
	}
	if !fastRoundRank.Less(p.vrnd) && p.vval == nil {
		p.vrnd = fastRoundRank
		p.vval = v
	}
	if p.myProposal == nil {
		p.myProposal = v
	}
}

// StartPhase1a begins a recovery round with the given round number. The rank
// is (round, myIndex+2) so that concurrent coordinators use distinct ranks
// and all recovery ranks exceed the fast round's rank.
func (p *Paxos) StartPhase1a(round uint64) {
	p.mu.Lock()
	if p.decided {
		p.mu.Unlock()
		return
	}
	rank := remoting.Rank{Round: round, NodeIndex: uint64(p.cfg.MyIndex) + 2}
	if !p.crnd.Less(rank) {
		p.mu.Unlock()
		return
	}
	p.crnd = rank
	p.phase1bMessages = nil
	p.phase2aSent = false
	req := &remoting.Request{P1a: &remoting.Phase1a{
		Sender:          p.cfg.MyAddr,
		ConfigurationID: p.cfg.ConfigurationID,
		Rank:            p.crnd,
	}}
	p.mu.Unlock()
	p.cfg.Broadcaster.Broadcast(req)
}

// HandlePhase1a processes a prepare request from a coordinator.
func (p *Paxos) HandlePhase1a(msg *remoting.Phase1a) {
	if msg.ConfigurationID != p.cfg.ConfigurationID {
		return
	}
	p.mu.Lock()
	if p.rnd.Less(msg.Rank) {
		p.rnd = msg.Rank
	} else {
		p.mu.Unlock()
		return
	}
	resp := &remoting.Request{P1b: &remoting.Phase1b{
		Sender:          p.cfg.MyAddr,
		ConfigurationID: p.cfg.ConfigurationID,
		Rnd:             p.rnd,
		VRnd:            p.vrnd,
		VVal:            append(Value(nil), p.vval...),
	}}
	coordinator := msg.Sender
	p.mu.Unlock()
	p.cfg.Client.SendBestEffort(coordinator, resp)
}

// HandlePhase1b processes a promise at the coordinator. Once a majority of
// promises for the current rank arrive, the coordinator selects a value using
// the Fast Paxos coordinator rule and broadcasts phase 2a.
func (p *Paxos) HandlePhase1b(msg *remoting.Phase1b) {
	if msg.ConfigurationID != p.cfg.ConfigurationID {
		return
	}
	p.mu.Lock()
	if p.decided || !msg.Rnd.Equal(p.crnd) || p.phase2aSent {
		p.mu.Unlock()
		return
	}
	for _, existing := range p.phase1bMessages {
		if existing.Sender == msg.Sender {
			p.mu.Unlock()
			return
		}
	}
	p.phase1bMessages = append(p.phase1bMessages, *msg)
	if len(p.phase1bMessages) < majority(p.cfg.MembershipSize) {
		p.mu.Unlock()
		return
	}
	value := p.selectValueLocked()
	if len(value) == 0 {
		// Nothing to propose yet: wait until a proposal exists.
		p.mu.Unlock()
		return
	}
	p.cval = value
	p.phase2aSent = true
	req := &remoting.Request{P2a: &remoting.Phase2a{
		Sender:          p.cfg.MyAddr,
		ConfigurationID: p.cfg.ConfigurationID,
		Rank:            p.crnd,
		Value:           value,
	}}
	p.mu.Unlock()
	p.cfg.Broadcaster.Broadcast(req)
}

// selectValueLocked implements the coordinator's value-selection rule
// (Fast Paxos, Figure 2 of Lamport's paper, adapted): consider the phase 1b
// messages with the highest vrnd; if they contain a value that appears more
// than N/4 times it is the only possibly-chosen value and must be used;
// otherwise any value may be proposed (we prefer the most frequent reported
// value, then our own proposal).
func (p *Paxos) selectValueLocked() Value {
	var maxVrnd remoting.Rank
	for _, m := range p.phase1bMessages {
		if maxVrnd.Less(m.VRnd) {
			maxVrnd = m.VRnd
		}
	}
	counts := make(map[string]int)
	byKey := make(map[string]Value)
	for _, m := range p.phase1bMessages {
		if m.VRnd.Equal(maxVrnd) && len(m.VVal) > 0 {
			k := Key(m.VVal)
			counts[k]++
			byKey[k] = m.VVal
		}
	}
	// A value that appears more than N/4 times among the highest-ranked
	// votes may have been chosen in the fast round; it must be preserved.
	intersection := p.cfg.MembershipSize / 4
	bestKey, bestCount := "", 0
	for k, c := range counts {
		if c > bestCount || (c == bestCount && k < bestKey) {
			bestKey, bestCount = k, c
		}
	}
	if bestCount > intersection && bestKey != "" {
		return byKey[bestKey]
	}
	if bestKey != "" {
		return byKey[bestKey]
	}
	return p.myProposal
}

// HandlePhase2a processes an accept request from a coordinator.
func (p *Paxos) HandlePhase2a(msg *remoting.Phase2a) {
	if msg.ConfigurationID != p.cfg.ConfigurationID {
		return
	}
	p.mu.Lock()
	if msg.Rank.Less(p.rnd) || p.vrnd.Equal(msg.Rank) {
		p.mu.Unlock()
		return
	}
	p.rnd = msg.Rank
	p.vrnd = msg.Rank
	p.vval = append(Value(nil), msg.Value...)
	req := &remoting.Request{P2b: &remoting.Phase2b{
		Sender:          p.cfg.MyAddr,
		ConfigurationID: p.cfg.ConfigurationID,
		Rank:            msg.Rank,
		Value:           msg.Value,
	}}
	p.mu.Unlock()
	p.cfg.Broadcaster.Broadcast(req)
}

// HandlePhase2b processes an acceptance at the learner. A value accepted at
// the same rank by a majority is decided.
func (p *Paxos) HandlePhase2b(msg *remoting.Phase2b) {
	if msg.ConfigurationID != p.cfg.ConfigurationID {
		return
	}
	p.mu.Lock()
	if p.decided {
		p.mu.Unlock()
		return
	}
	voters, ok := p.accepted[msg.Rank]
	if !ok {
		voters = make(map[node.Addr]bool)
		p.accepted[msg.Rank] = voters
		p.values[msg.Rank] = append(Value(nil), msg.Value...)
	}
	voters[msg.Sender] = true
	if len(voters) < majority(p.cfg.MembershipSize) {
		p.mu.Unlock()
		return
	}
	p.decided = true
	value := p.values[msg.Rank]
	onDecide := p.cfg.OnDecide
	p.mu.Unlock()
	if onDecide != nil {
		onDecide(value)
	}
}

// AcceptedValue returns the acceptor's current vote, for tests and debugging.
func (p *Paxos) AcceptedValue() (remoting.Rank, Value) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.vrnd, append(Value(nil), p.vval...)
}
