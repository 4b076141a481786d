// Package trace is the simulator's deterministic observability layer: a
// cycle-stamped structured event bus threaded through the whole machine
// (SMs, L1/L2 controllers, interconnect, DRAM, the rollover coordinator).
//
// Design constraints, in order:
//
//  1. Zero overhead when disabled. Every component holds a *Bus that is
//     nil by default; every emit helper is a method on the nil receiver
//     that returns immediately, and call sites pass only scalars and
//     string constants, so a disabled bus costs one branch and no
//     allocation on the hot path.
//  2. Determinism. Events are keyed by simulated cycle, never wall-clock,
//     and each Bus is owned by exactly one single-threaded sim.Machine —
//     the same ownership discipline as stats.Run — so trace output is
//     byte-identical across runs and across parallel sweep settings.
//  3. Explainability. Events carry the logical timestamps (ver/exp/now)
//     the protocol moves on the wire, so a trace is enough to replay the
//     paper's reasoning (Fig. 3) and to check the Tardis/RCC timestamp
//     invariants at runtime (see InvariantSink).
package trace

import (
	"fmt"

	"rccsim/internal/coherence"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// Kind classifies a trace event.
type Kind uint8

const (
	// KindSend is a coherence message injected into the interconnect.
	KindSend Kind = iota
	// KindRecv is a coherence message delivered to its destination node.
	KindRecv
	// KindL1State is an L1 line/MSHR state transition ("I->IV", ...).
	KindL1State
	// KindL2State is an L2 block update (write, atomic, fill, evict).
	KindL2State
	// KindLease is a lease lifecycle event: grant/renew at the L2,
	// expiry observation at an L1.
	KindLease
	// KindClock is a core logical-clock advance (RCC rules 1-3).
	KindClock
	// KindRollover is a timestamp-rollover phase transition (Sec. III-D).
	KindRollover
	// KindStallBegin opens a per-SM SC stall interval; Label carries the
	// blame class of the blocking operation (Figs 1a/1b/8).
	KindStallBegin
	// KindStallEnd closes an SC stall interval; Val is its length.
	KindStallEnd
	// KindDRAM is a DRAM command issue (read/write x row hit/miss).
	KindDRAM
	// KindMetrics is an interval-metrics snapshot row (IntervalSink).
	KindMetrics
	numKinds
)

// String returns the stable wire name of the kind (used in JSONL output
// and golden files; do not reword existing names).
func (k Kind) String() string {
	switch k {
	case KindSend:
		return "send"
	case KindRecv:
		return "recv"
	case KindL1State:
		return "l1"
	case KindL2State:
		return "l2"
	case KindLease:
		return "lease"
	case KindClock:
		return "clock"
	case KindRollover:
		return "rollover"
	case KindStallBegin:
		return "stall+"
	case KindStallEnd:
		return "stall-"
	case KindDRAM:
		return "dram"
	case KindMetrics:
		return "metrics"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Kinds lists every event kind (exhaustiveness tests and sink dispatch).
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// Lease event labels.
const (
	LeaseGrant   = "grant"   // full DATA response carrying a fresh lease
	LeaseRenew   = "renew"   // RENEW extension, no data (Sec. III-E)
	LeaseExpired = "expired" // L1 load found the copy valid but expired
)

// Rollover phase labels (Sec. III-D).
const (
	RolloverStall = "stall-begin" // ring stall requested, machine freezing
	RolloverReset = "reset"       // network drained; L2 timestamps zeroed
	RolloverFlush = "l1-flush"    // one L1 zeroed its clock and tags
	RolloverDone  = "done"        // machine unfrozen; Val = stall cycles
)

// Event is one cycle-stamped observation. The struct is flat and
// pointer-free so sinks can retain copies without aliasing live protocol
// state. Fields outside the kind's vocabulary are zero (Dst and Warp use
// -1 for "not applicable").
type Event struct {
	Cycle timing.Cycle
	Kind  Kind
	Src   int    // source node / SM / L2 partition, by kind
	Dst   int    // destination node or lease requester; -1 if unused
	Warp  int    // originating warp; -1 if unused
	Line  uint64 // line address
	Label string // message type, state transition, phase, or blame class
	Now   uint64 // logical "now" carried / core read view (KindClock)
	Ver   uint64 // block version / core write view (KindClock)
	Exp   uint64 // lease expiration
	Val   uint64 // data value, stall length, or payload by kind
	Flits int    // interconnect flit count (KindSend)
}

// String renders the event compactly (invariant-failure tails, debugging).
func (e *Event) String() string {
	return fmt.Sprintf("cyc %-6d %-8s %-10s src=%d dst=%d warp=%d line=%d now=%d ver=%d exp=%d val=%d",
		e.Cycle, e.Kind, e.Label, e.Src, e.Dst, e.Warp, e.Line, e.Now, e.Ver, e.Exp, e.Val)
}

// Sink consumes events. Sinks are invoked synchronously, in registration
// order, from the simulation thread, and need no locking. e points at the
// bus's one reused event, which the next emit overwrites: a sink must not
// retain e, and copies the struct (*e) to keep an event.
type Sink interface {
	Event(e *Event)
	// Close flushes buffered output. The Bus closes sinks in
	// registration order.
	Close() error
}

// CycleSink is the optional interval hook: the machine notifies the bus
// once per executed cycle (including event-driven jumps), and the bus
// forwards to every sink that implements CycleSink (e.g. IntervalSink).
type CycleSink interface {
	CycleReached(now timing.Cycle)
}

// statsBinder is implemented by sinks that snapshot the run's counters.
type statsBinder interface {
	BindStats(st *stats.Run)
}

// errSink is implemented by sinks that can fail (InvariantSink).
type errSink interface {
	Err() error
}

// Bus fans events out to its sinks. A nil *Bus is the disabled fast path:
// every method is safe (and free) to call on it.
//
// An enabled bus emits without allocating: every helper fills the bus's
// one reused event and passes its address to each sink (see Sink). This
// relies on a bus being written by one goroutine at a time: a machine is
// stepped by one goroutine, and each concurrently running machine gets its
// own bus.
type Bus struct {
	sinks      []Sink
	cycleSinks []CycleSink
	ev         Event // the reused event every emit helper fills
}

// NewBus builds a bus over the given sinks. A bus with no sinks behaves
// like an enabled bus that discards everything; pass nil instead to
// disable tracing entirely.
func NewBus(sinks ...Sink) *Bus {
	b := &Bus{sinks: sinks}
	for _, s := range sinks {
		if cs, ok := s.(CycleSink); ok {
			b.cycleSinks = append(b.cycleSinks, cs)
		}
	}
	return b
}

// Enabled reports whether events will be observed.
func (b *Bus) Enabled() bool { return b != nil && len(b.sinks) > 0 }

// BindStats hands the run's live counter set to every sink that snapshots
// it (IntervalSink). Called by Machine.Attach.
func (b *Bus) BindStats(st *stats.Run) {
	if b == nil {
		return
	}
	for _, s := range b.sinks {
		if sb, ok := s.(statsBinder); ok {
			sb.BindStats(st)
		}
	}
}

// CycleReached notifies interval sinks that the machine has advanced to
// cycle now. Cheap when no sink cares.
func (b *Bus) CycleReached(now timing.Cycle) {
	if b == nil || len(b.cycleSinks) == 0 {
		return
	}
	for _, s := range b.cycleSinks {
		s.CycleReached(now)
	}
}

// Close flushes every sink and returns the first error, preferring sink
// failures (invariant violations) over flush errors.
func (b *Bus) Close() error {
	if b == nil {
		return nil
	}
	err := b.Err()
	for _, s := range b.sinks {
		if cerr := s.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// Err returns the first sink failure (an invariant violation), if any.
func (b *Bus) Err() error {
	if b == nil {
		return nil
	}
	for _, s := range b.sinks {
		if es, ok := s.(errSink); ok {
			if err := es.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// emit hands the reused event to every sink. Each helper below assigns
// b.ev a whole Event literal first, so no field leaks from the previous
// event.
func (b *Bus) emit() {
	for _, s := range b.sinks {
		s.Event(&b.ev)
	}
}

// MsgSend records a coherence message entering the interconnect with the
// logical timestamps it carries on the wire.
func (b *Bus) MsgSend(now timing.Cycle, m *coherence.Msg, flits int) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindSend, Src: m.Src, Dst: m.Dst, Warp: m.Warp,
		Line: m.Line, Label: m.Type.String(), Now: m.Now, Ver: m.Ver, Exp: m.Exp,
		Val: m.Val, Flits: flits}
	b.emit()
}

// MsgRecv records a coherence message delivered to its destination.
func (b *Bus) MsgRecv(now timing.Cycle, m *coherence.Msg) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindRecv, Src: m.Src, Dst: m.Dst, Warp: m.Warp,
		Line: m.Line, Label: m.Type.String(), Now: m.Now, Ver: m.Ver, Exp: m.Exp,
		Val: m.Val}
	b.emit()
}

// L1State records a private-cache state transition for core's copy of line.
func (b *Bus) L1State(now timing.Cycle, core int, line uint64, transition string) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindL1State, Src: core, Dst: -1, Warp: -1,
		Line: line, Label: transition}
	b.emit()
}

// L2State records a shared-cache block update on partition part with the
// block's resulting version and expiration.
func (b *Bus) L2State(now timing.Cycle, part int, line uint64, label string, ver, exp uint64) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindL2State, Src: part, Dst: -1, Warp: -1,
		Line: line, Label: label, Ver: ver, Exp: exp}
	b.emit()
}

// Lease records a lease grant or renewal by partition part to core dst.
func (b *Bus) Lease(now timing.Cycle, label string, part int, line uint64, ver, exp uint64, dst int) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindLease, Src: part, Dst: dst, Warp: -1,
		Line: line, Label: label, Ver: ver, Exp: exp}
	b.emit()
}

// LeaseExpiredAt records an L1 load that found core's copy of line valid
// but past its lease (the self-invalidation that makes RCC/TC coherent).
func (b *Bus) LeaseExpiredAt(now timing.Cycle, core int, line uint64, exp, clock uint64) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindLease, Src: core, Dst: -1, Warp: -1,
		Line: line, Label: LeaseExpired, Now: clock, Exp: exp}
	b.emit()
}

// Clock records a core's logical clock after an advance: read view in Now,
// write view in Ver (equal under SC; split under RCC-WO).
func (b *Bus) Clock(now timing.Cycle, core int, read, write uint64) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindClock, Src: core, Dst: -1, Warp: -1,
		Now: read, Ver: write}
	b.emit()
}

// Rollover records a rollover phase transition; node is the L1 for
// RolloverFlush events and -1 for machine-wide phases; val carries the
// total stall length on RolloverDone.
func (b *Bus) Rollover(now timing.Cycle, label string, node int, val uint64) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindRollover, Src: node, Dst: -1, Warp: -1,
		Label: label, Val: val}
	b.emit()
}

// StallBegin opens an SC stall interval on sm: the scheduler lost its
// issue slot to memory-ordering, blamed on warp's outstanding blame op.
func (b *Bus) StallBegin(now timing.Cycle, sm, warp int, blame stats.OpClass) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindStallBegin, Src: sm, Dst: -1, Warp: warp,
		Label: blame.String()}
	b.emit()
}

// StallEnd closes the open SC stall interval on sm; cycles is its length.
func (b *Bus) StallEnd(now timing.Cycle, sm int, blame stats.OpClass, cycles uint64) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindStallEnd, Src: sm, Dst: -1, Warp: -1,
		Label: blame.String(), Val: cycles}
	b.emit()
}

// DRAMOp records a DRAM command issue on partition part's channel.
func (b *Bus) DRAMOp(now timing.Cycle, part int, line uint64, label string) {
	if b == nil {
		return
	}
	b.ev = Event{Cycle: now, Kind: KindDRAM, Src: part, Dst: -1, Warp: -1,
		Line: line, Label: label}
	b.emit()
}
