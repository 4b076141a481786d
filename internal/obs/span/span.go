// Package span is the third observability layer: causal, per-operation
// latency spans. The trace bus (events) and the stats registry
// (aggregates) answer "what happened" and "how much"; spans answer
// "where did *this* op's cycles go" — a waterfall from SM issue through
// L1, NoC, L2 protocol logic and DRAM back to completion, plus the
// dependency edges (MSHR coalescing, lease waits, barrier joins) that
// let us extract the longest causal chain bounding a run.
//
// The layer follows the repo's nil-receiver contract: a nil *Recorder
// is valid everywhere, every method no-ops, and the hot path pays one
// predictable branch (`m.Span != 0`) when tracing is off. Span IDs are
// request IDs (already unique and nonzero), so no extra identity is
// threaded through the machine; messages carry the ID in Msg.Span and
// components mark segment boundaries as the message moves.
//
// Segment accounting telescopes: Mark(id, seg, at) charges seg with
// max(0, at-last) and advances last. By construction the segment sum
// for a finished span equals its end-to-end latency exactly — the
// reconciliation the acceptance tests pin — no matter how components
// interleave their marks.
package span

import (
	"sync"

	"rccsim/internal/timing"
)

// Seg names one blame segment of an op's waterfall, in canonical
// request-path order. Marks may arrive out of this order (a store that
// misses and then stalls on a lease marks DRAM before Protocol); the
// telescoping rule keeps the sum exact regardless.
type Seg uint8

const (
	// SegIssue covers SM issue (operand ready, slot submitted) to L1
	// accept — retries on a full L1 inbox/MSHR land here.
	SegIssue Seg = iota
	// SegL1 covers L1 accept to the miss leaving L1 (or the hit
	// completing): tag lookup, MSHR allocation.
	SegL1
	// SegCoalesce is the whole wait of a load that joined another
	// op's in-flight L1 MSHR instead of sending its own GetS.
	SegCoalesce
	// SegNoCReqQueue is source-port serialization backpressure on the
	// request trip; SegNoCReqWire is pipe + serialization transit.
	SegNoCReqQueue
	SegNoCReqWire
	// SegL2Pipe covers NoC delivery to the L2 bank handler popping
	// the message: bank pipeline latency plus any deferred-replay wait.
	SegL2Pipe
	// SegProto is protocol-induced stall: a TCS/TCW store waiting out
	// a read lease, a MESI write waiting on invalidation acks.
	SegProto
	// SegDRAM covers the L2 miss submitting to DRAM until the fill is
	// processed by the bank.
	SegDRAM
	// Response-trip NoC segments, mirroring the request pair.
	SegNoCRspQueue
	SegNoCRspWire
	// SegReply covers NoC delivery back to the SM observing MemDone
	// (L1 inbox wait, completion bookkeeping).
	SegReply

	numSegs
	// NumSegs is the number of waterfall segments (for callers that
	// iterate Seg(0)..NumSegs-1 over a Summary).
	NumSegs = numSegs
)

var segNames = [numSegs]string{
	"issue", "l1", "coalesce",
	"noc_req_queue", "noc_req_wire",
	"l2_pipe", "protocol", "dram",
	"noc_rsp_queue", "noc_rsp_wire",
	"reply",
}

// Name returns the stable lowercase identifier used in folded stacks,
// the /spans endpoint, and Perfetto flow steps.
func (s Seg) Name() string {
	if int(s) < len(segNames) {
		return segNames[s]
	}
	return "?"
}

// Kind classifies the tracked operation.
type Kind uint8

const (
	Load Kind = iota
	Store
	Atomic
)

func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	case Atomic:
		return "atomic"
	}
	return "?"
}

// Dep is a causal dependency edge: this op could not make progress
// until op On (its span ID) had; Why is "coalesce", "lease-wait" or
// "barrier".
type Dep struct {
	On  uint64
	Why string
}

// Child is a protocol sub-span attached to an op: a lease grant/renew
// window, a TCS expiry wait, a MESI invalidation round, a DRAM service
// interval. Children annotate the waterfall but are *not* part of the
// telescoping segment sum (they overlap parent segments).
type Child struct {
	Why        string
	Start, End timing.Cycle
}

// MarkRec is one recorded segment boundary, kept in arrival order so
// Perfetto flow events can be emitted at true timestamps.
type MarkRec struct {
	Seg Seg
	At  timing.Cycle
}

// Op is one tracked memory operation. Fields are exported for the
// report/JSON layers; mutation goes through the Recorder.
type Op struct {
	ID       uint64
	SM       int
	Warp     int
	Line     uint64
	Kind     Kind
	Issue    timing.Cycle
	Finish   timing.Cycle
	Segs     [numSegs]uint64
	Marks    []MarkRec
	Deps     []Dep
	Children []Child

	last timing.Cycle
	done bool
}

// Total is the end-to-end latency. For a finished op it equals the sum
// of Segs by construction.
func (o *Op) Total() uint64 { return uint64(o.Finish - o.Issue) }

// Recorder collects spans for one run. Methods are nil-safe and
// internally locked: the simulator marks from its (sequential) run
// loop while the -serve introspection server snapshots concurrently.
// Per-ID calls (Abort, Tracked, Mark, Finish, Edge, AddChild, EdgeLease)
// for an ID that sampling skips return before taking the lock, since
// such an ID is never live; the mutex is taken only for sampled IDs and
// for NoteLease and the snapshots (Done, LiveCount, Summarize).
type Recorder struct {
	mu    sync.Mutex
	every uint64
	live  map[uint64]*Op
	done  []*Op
	// lease remembers, per line, the last tracked span that was
	// granted or renewed a read lease — the blocker a later store's
	// expiry wait depends on.
	lease map[uint64]uint64
}

// NewRecorder returns a recorder tracking every Nth operation
// (deterministically by request ID; every<=0 disables, 1 tracks all).
func NewRecorder(every int) *Recorder {
	if every <= 0 {
		return nil
	}
	return &Recorder{
		every: uint64(every),
		live:  make(map[uint64]*Op),
		lease: make(map[uint64]uint64),
	}
}

// Every reports the sampling stride (0 when nil/disabled).
func (r *Recorder) Every() uint64 {
	if r == nil {
		return 0
	}
	return r.every
}

// sampled decides trackedness from the request ID alone, so the choice
// is identical across runs and replays. IDs are strided by NumSMs (SM s
// issues s+1, s+1+NumSMs, ...), so a plain modulus would track a
// correlated subset of SMs; mix first.
func (r *Recorder) sampled(id uint64) bool {
	if r.every == 1 {
		return true
	}
	h := id * 0x9e3779b97f4a7c15
	h ^= h >> 33
	h *= 0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	return h%r.every == 0
}

// Start begins a span for request id at its SM issue cycle. Returns
// whether the op is tracked (false on a nil recorder or when sampling
// skips it). The caller must Abort if the access is then rejected.
func (r *Recorder) Start(id uint64, sm, warp int, line uint64, kind Kind, at timing.Cycle) bool {
	if r == nil || !r.sampled(id) {
		return false
	}
	r.mu.Lock()
	r.live[id] = &Op{
		ID: id, SM: sm, Warp: warp, Line: line, Kind: kind,
		Issue: at, last: at,
	}
	r.mu.Unlock()
	return true
}

// Abort discards a live span (the SM rolled back the issue).
func (r *Recorder) Abort(id uint64) {
	if r == nil || !r.sampled(id) {
		return
	}
	r.mu.Lock()
	delete(r.live, id)
	r.mu.Unlock()
}

// Tracked reports whether id has a live span. L1 controllers use it to
// decide whether to stamp Msg.Span for requests that carry a ReqID.
func (r *Recorder) Tracked(id uint64) bool {
	if r == nil || !r.sampled(id) {
		return false
	}
	r.mu.Lock()
	_, ok := r.live[id]
	r.mu.Unlock()
	return ok
}

// Mark records a segment boundary: seg absorbs the cycles since the
// previous mark (clamped at zero so an out-of-order mark can never
// drive the telescoping sum away from the end-to-end latency).
func (r *Recorder) Mark(id uint64, seg Seg, at timing.Cycle) {
	if r == nil || !r.sampled(id) {
		return
	}
	r.mu.Lock()
	r.mark(id, seg, at)
	r.mu.Unlock()
}

func (r *Recorder) mark(id uint64, seg Seg, at timing.Cycle) {
	o := r.live[id]
	if o == nil {
		return
	}
	if at > o.last {
		o.Segs[seg] += uint64(at - o.last)
		o.last = at
	}
	o.Marks = append(o.Marks, MarkRec{Seg: seg, At: at})
}

// Finish marks the final segment and closes the span. Returns whether
// the id was tracked, so the SM can maintain its barrier-join anchor
// without a second map probe.
func (r *Recorder) Finish(id uint64, seg Seg, at timing.Cycle) bool {
	if r == nil || !r.sampled(id) {
		return false
	}
	r.mu.Lock()
	o := r.live[id]
	if o == nil {
		r.mu.Unlock()
		return false
	}
	r.mark(id, seg, at)
	o.Finish = o.last
	o.done = true
	delete(r.live, id)
	r.done = append(r.done, o)
	r.mu.Unlock()
	return true
}

// Edge records that op id was blocked on op dep. Self-edges and
// edges to 0 are ignored.
func (r *Recorder) Edge(id, dep uint64, why string) {
	if r == nil || dep == 0 || dep == id || !r.sampled(id) {
		return
	}
	r.mu.Lock()
	if o := r.live[id]; o != nil {
		o.Deps = append(o.Deps, Dep{On: dep, Why: why})
	}
	r.mu.Unlock()
}

// AddChild attaches a protocol sub-span to a live op.
func (r *Recorder) AddChild(id uint64, why string, start, end timing.Cycle) {
	if r == nil || !r.sampled(id) {
		return
	}
	r.mu.Lock()
	if o := r.live[id]; o != nil {
		o.Children = append(o.Children, Child{Why: why, Start: start, End: end})
	}
	r.mu.Unlock()
}

// NoteLease remembers that tracked span id holds a read lease on line;
// a later store stalled by that lease gets a "lease-wait" edge.
func (r *Recorder) NoteLease(line, id uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.lease[line] = id
	r.mu.Unlock()
}

// EdgeLease adds a "lease-wait" dependency from id to the last tracked
// lease holder of line, if any.
func (r *Recorder) EdgeLease(id, line uint64) {
	if r == nil || !r.sampled(id) {
		return
	}
	r.mu.Lock()
	if dep, ok := r.lease[line]; ok && dep != id {
		if o := r.live[id]; o != nil {
			o.Deps = append(o.Deps, Dep{On: dep, Why: "lease-wait"})
		}
	}
	r.mu.Unlock()
}

// Done returns a snapshot of the finished spans (the slice is copied;
// the *Op records are shared and immutable once finished).
func (r *Recorder) Done() []*Op {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]*Op, len(r.done))
	copy(out, r.done)
	r.mu.Unlock()
	return out
}

// LiveCount reports in-flight tracked ops (useful for leak checks).
func (r *Recorder) LiveCount() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	n := len(r.live)
	r.mu.Unlock()
	return n
}
