package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/broker"
	"repro/internal/nn"
	"repro/internal/placement"
	"repro/internal/tensor"
	"repro/internal/transport"
	"repro/internal/wire"
)

// epoch anchors the one clock every stamp and span in the process uses.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// isHeartbeat reports the supervisor's timer-driven probes. They are
// left out of every byte and frame count: their number depends on wall
// time, not on the training work.
func isHeartbeat(t wire.MsgType) bool { return t == wire.MsgPing || t == wire.MsgPong }

// exchangeValues is the number of activation or gradient values an
// exchange frame carries, or -1 for any other frame. A coalesced frame's
// leading expert-id row is not counted.
func exchangeValues(m *wire.Message) int {
	switch m.Type {
	case wire.MsgForward, wire.MsgBackward, wire.MsgForwardResult, wire.MsgBackwardResult:
		return m.PayloadFloats()
	case wire.MsgForwardMulti, wire.MsgBackwardMulti, wire.MsgForwardMultiResult, wire.MsgBackwardMultiResult:
		if len(m.Tensors) == 0 {
			return 0
		}
		return m.PayloadFloats() - len(m.Tensors[0].Data)
	}
	return -1
}

// request holds the six stamps of one exchange request, T0..T5: master
// Send start/end, worker Recv return, worker Send start/end, master Recv
// return. Consecutive differences telescope to the round trip T5-T0.
type request struct {
	worker int
	exch   int64 // exchange span id; 0 outside a timed exchange
	values int   // values sent in both directions
	t      [6]int64
	have   uint8 // bit i set once t[i] is stamped
}

// tap is one deployment's connection instrumentation. Frame and byte
// counts run in every mode; stamps only when stamping is set.
type tap struct {
	stamping bool
	frames   atomic.Int64   // frames sent on the master's connections, both ways
	bytes    []atomic.Int64 // encoded frame bytes per worker connection, both ways
	exch     atomic.Int64   // id of the exchange in flight, read by the master's writer goroutines

	mu   sync.Mutex
	reqs map[uint64]*request
}

func newTap(workers int, stamping bool) *tap {
	return &tap{stamping: stamping, bytes: make([]atomic.Int64, workers), reqs: map[uint64]*request{}}
}

// get returns seq's request, creating it on first sight. t.mu must be held.
func (t *tap) get(seq uint64, worker int) *request {
	r := t.reqs[seq]
	if r == nil {
		r = &request{worker: worker}
		t.reqs[seq] = r
	}
	return r
}

// drain hands over every stamped request and forgets them.
func (t *tap) drain() []*request {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*request, 0, len(t.reqs))
	for _, r := range t.reqs {
		out = append(out, r)
	}
	t.reqs = map[uint64]*request{}
	return out
}

// totalBytes sums the byte counters, optionally only for the workers
// marked in only.
func (t *tap) totalBytes(only []bool) int64 {
	var s int64
	for n := range t.bytes {
		if only == nil || only[n] {
			s += t.bytes[n].Load()
		}
	}
	return s
}

// tapConn wraps one end of a master-worker connection. The master end
// counts frames and bytes; both ends stamp exchange requests. It forwards
// the Serializer and Deadliner capabilities, so the executor takes the
// same release and deadline paths as over the bare connection.
type tapConn struct {
	transport.Conn
	t      *tap
	worker int
	master bool
}

func (c *tapConn) Send(m *wire.Message) error {
	if isHeartbeat(m.Type) {
		return c.Conn.Send(m)
	}
	// Read everything before Send: over the in-process pipe the peer owns
	// the message once Send returns. The exchange id is read before Send
	// too, since the reply can end the exchange before Send returns.
	size, seq, vals, ex := wire.EncodedSize(m), m.Seq, -1, c.t.exch.Load()
	if c.t.stamping {
		vals = exchangeValues(m)
	}
	var t0 int64
	if vals >= 0 {
		t0 = now()
	}
	if err := c.Conn.Send(m); err != nil {
		return err
	}
	if vals >= 0 {
		t1 := now()
		i := 3
		if c.master {
			i = 0
		}
		c.t.mu.Lock()
		r := c.t.get(seq, c.worker)
		if c.master {
			r.exch = ex
		}
		r.values += vals
		r.t[i], r.t[i+1] = t0, t1
		r.have |= 3 << i
		c.t.mu.Unlock()
	}
	if c.master {
		c.t.frames.Add(1)
		c.t.bytes[c.worker].Add(int64(size))
	}
	return nil
}

func (c *tapConn) Recv() (*wire.Message, error) {
	m, err := c.Conn.Recv()
	if err != nil || isHeartbeat(m.Type) {
		return m, err
	}
	if c.t.stamping && exchangeValues(m) >= 0 {
		at := now()
		i := 2
		if c.master {
			i = 5
		}
		c.t.mu.Lock()
		r := c.t.get(m.Seq, c.worker)
		r.t[i] = at
		r.have |= 1 << i
		c.t.mu.Unlock()
	}
	if c.master {
		c.t.frames.Add(1)
		c.t.bytes[c.worker].Add(int64(wire.EncodedSize(m)))
	}
	return m, nil
}

func (c *tapConn) SendCopies() bool { return transport.Copies(c.Conn) }

func (c *tapConn) SetRecvDeadline(t time.Time) error {
	if d, ok := c.Conn.(transport.Deadliner); ok {
		return d.SetRecvDeadline(t)
	}
	return nil
}

func (c *tapConn) SetSendDeadline(t time.Time) error {
	if d, ok := c.Conn.(transport.Deadliner); ok {
		return d.SetSendDeadline(t)
	}
	return nil
}

// span is one timed call into a layer, on the training goroutine.
type span struct {
	name       string
	start, end int64
	id         int64 // exchange id, for exchange spans
	rows       []int // rows routed to each worker, for exchange spans
}

// recorder collects the spans of the step in flight. A nil recorder
// records nothing, which is how the untraced runs call the same code.
type recorder struct {
	tap    *tap
	spans  []span
	hook   int // >0 while inside a span taken by do
	nextID int64
}

// do runs fn inside a span named name.
func (r *recorder) do(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	r.hook++
	s := now()
	err := fn()
	r.spans = append(r.spans, span{name: name, start: s, end: now()})
	r.hook--
	return err
}

// execTap times the broker executor's exchanges. Exchanges issued from
// inside a span taken by do (the scripted re-profile) belong to it.
type execTap struct {
	*broker.Executor
	rec *recorder
}

func (x *execTap) ForwardExperts(layer int, b map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.timed(layer, b, x.Executor.ForwardExperts)
}

func (x *execTap) BackwardExperts(layer int, b map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error) {
	return x.timed(layer, b, x.Executor.BackwardExperts)
}

func (x *execTap) timed(layer int, b map[int]*tensor.Tensor,
	fn func(int, map[int]*tensor.Tensor) (map[int]*tensor.Tensor, error)) (map[int]*tensor.Tensor, error) {
	r := x.rec
	if r.hook > 0 {
		return fn(layer, b)
	}
	a := x.Assignment()
	rows := make([]int, x.NumWorkers())
	for e, t := range b {
		rows[a.Worker[layer][e]] += t.Rows()
	}
	r.nextID++
	id := r.nextID
	r.tap.exch.Store(id)
	s := now()
	out, err := fn(layer, b)
	e := now()
	r.tap.exch.Store(0)
	r.spans = append(r.spans, span{name: "exchange", start: s, end: e, id: id, rows: rows})
	return out, err
}

// optTap times the master's backbone optimizer step.
type optTap struct {
	nn.Optimizer
	rec *recorder
}

func (o *optTap) Step() {
	s := now()
	o.Optimizer.Step()
	o.rec.spans = append(o.rec.spans, span{name: "opt", start: s, end: now()})
}

// migTap counts the experts the re-placement controller moves and
// labels a controller decision that migrated.
type migTap struct {
	*broker.Executor
	moved int
}

func (m *migTap) ExecutePlan(plan []placement.Move) (int, error) {
	n, err := m.Executor.ExecutePlan(plan)
	m.moved += n
	return n, err
}

// interval is a half-open [lo, hi) stretch of the shared clock.
type interval struct{ lo, hi int64 }

// covered is the total length of the union of ivs clipped to [lo, hi).
func covered(ivs []interval, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, cur := int64(0), lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
