package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/node"
	"repro/internal/remoting"
	"repro/internal/transport"
)

// The traced run wraps each member's transport.Network in tracedNet. It
// records a span around every Send/SendBestEffort (the transport layer, as
// the caller sees it) and every HandleRequest (the core handler), counted per
// message kind. A synchronous simnet Send runs the handler on the sender's
// goroutine, so the handle span names its send span as parent through the
// context; best-effort and TCP deliveries have no parent.

// kinds are the message groups the per-layer metrics report.
var kinds = []string{"probe", "alerts_votes", "prejoin", "join", "phase1a", "other"}

// reservoirSize bounds the spans kept per (operation, kind): enough for a
// p99 with 80 samples beyond it, small enough to write out at exit.
const reservoirSize = 8192

// span is one timed call at a layer boundary.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Op     string `json:"op"`
	Kind   string `json:"kind"`
	From   string `json:"from"`
	To     string `json:"to"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Err    bool   `json:"err,omitempty"`
}

// kindLog counts one (operation, kind) and keeps a uniform sample of spans.
type kindLog struct {
	count  atomic.Int64
	errors atomic.Int64

	mu    sync.Mutex
	seen  int64
	rng   uint64
	spans []span
	// reqs keeps a few requests of this kind for the codec and transport
	// replays.
	reqs []*remoting.Request
}

func (k *kindLog) add(s span, req *remoting.Request) {
	k.count.Add(1)
	if s.Err {
		k.errors.Add(1)
	}
	k.mu.Lock()
	k.seen++
	if len(k.spans) < reservoirSize {
		k.spans = append(k.spans, s)
	} else {
		k.rng ^= k.rng << 13
		k.rng ^= k.rng >> 7
		k.rng ^= k.rng << 17
		if j := k.rng % uint64(k.seen); j < reservoirSize {
			k.spans[j] = s
		}
	}
	if req != nil && len(k.reqs) < 32 {
		k.reqs = append(k.reqs, req)
	}
	k.mu.Unlock()
}

func (k *kindLog) durations() []float64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	out := make([]float64, len(k.spans))
	for i, s := range k.spans {
		out[i] = float64(s.Dur)
	}
	return out
}

func (k *kindLog) requests() []*remoting.Request {
	k.mu.Lock()
	defer k.mu.Unlock()
	return append([]*remoting.Request(nil), k.reqs...)
}

func (k *kindLog) reset() {
	k.count.Store(0)
	k.errors.Store(0)
	k.mu.Lock()
	k.seen, k.rng, k.spans = 0, 0x9e3779b97f4a7c15, k.spans[:0]
	k.mu.Unlock()
}

// recorder holds every span and count of one traced run in memory.
type recorder struct {
	start  time.Time
	nextID atomic.Uint64
	send   map[string]*kindLog
	handle map[string]*kindLog
}

func newRecorder() *recorder {
	r := &recorder{start: time.Now(), send: map[string]*kindLog{}, handle: map[string]*kindLog{}}
	for _, k := range kinds {
		r.send[k] = &kindLog{rng: 0x9e3779b97f4a7c15}
		r.handle[k] = &kindLog{rng: 0x9e3779b97f4a7c15}
	}
	return r
}

// reset drops what set-up recorded so the per-layer numbers cover the
// measured phase only; sampled requests are kept for the replays.
func (r *recorder) reset() {
	for _, k := range kinds {
		r.send[k].reset()
		r.handle[k].reset()
	}
}

// record keeps one span; id is reserved by the caller when nested spans
// must name it, and 0 otherwise.
func (r *recorder) record(id uint64, op string, parent uint64, from, to node.Addr, req *remoting.Request, begin time.Time, err error) {
	if id == 0 {
		id = r.nextID.Add(1)
	}
	k := kindOf(req)
	s := span{
		ID: id, Parent: parent, Op: op, Kind: k, From: string(from), To: string(to),
		Start: begin.Sub(r.start).Nanoseconds(), Dur: time.Since(begin).Nanoseconds(), Err: err != nil,
	}
	logs := r.send
	if op == "handle" {
		logs = r.handle
	}
	var keep *remoting.Request
	if op != "handle" {
		keep = req
	}
	logs[k].add(s, keep)
}

// writeSpans writes every kept span as JSON lines.
func (r *recorder) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, logs := range []map[string]*kindLog{r.send, r.handle} {
		for _, k := range kinds {
			l := logs[k]
			l.mu.Lock()
			for _, s := range l.spans {
				if err := enc.Encode(s); err != nil {
					l.mu.Unlock()
					f.Close()
					return fmt.Errorf("write spans: %w", err)
				}
			}
			l.mu.Unlock()
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

type spanKey struct{}

// tracedNet is the transport.Network interposer of the traced run.
type tracedNet struct {
	inner transport.Network
	rec   *recorder
}

func (t *tracedNet) Register(addr node.Addr, h transport.Handler) error {
	return t.inner.Register(addr, &tracedHandler{inner: h, rec: t.rec, addr: addr})
}

func (t *tracedNet) Deregister(addr node.Addr) { t.inner.Deregister(addr) }

func (t *tracedNet) Client(addr node.Addr) transport.Client {
	return &tracedClient{inner: t.inner.Client(addr), rec: t.rec, from: addr}
}

type tracedClient struct {
	inner transport.Client
	rec   *recorder
	from  node.Addr
}

func (c *tracedClient) Send(ctx context.Context, to node.Addr, req *remoting.Request) (*remoting.Response, error) {
	begin := time.Now()
	id := c.rec.nextID.Add(1)
	resp, err := c.inner.Send(context.WithValue(ctx, spanKey{}, id), to, req)
	c.rec.record(id, "send", 0, c.from, to, req, begin, err)
	return resp, err
}

func (c *tracedClient) SendBestEffort(to node.Addr, req *remoting.Request) {
	begin := time.Now()
	c.inner.SendBestEffort(to, req)
	c.rec.record(0, "send", 0, c.from, to, req, begin, nil)
}

type tracedHandler struct {
	inner transport.Handler
	rec   *recorder
	addr  node.Addr
}

func (h *tracedHandler) HandleRequest(ctx context.Context, from node.Addr, req *remoting.Request) (*remoting.Response, error) {
	begin := time.Now()
	resp, err := h.inner.HandleRequest(ctx, from, req)
	parent, _ := ctx.Value(spanKey{}).(uint64)
	h.rec.record(0, "handle", parent, from, h.addr, req, begin, err)
	return resp, err
}
