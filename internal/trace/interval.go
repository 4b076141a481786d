package trace

import (
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// IntervalSink snapshots the run's stats.Run counters every interval
// cycles and emits the deltas as KindMetrics events into a destination
// sink — time series of per-epoch instruction throughput, stall blame,
// and traffic by message class, separating warmup from steady state.
//
// It must be registered on the bus BEFORE its destination sink so its
// final partial row (written on Close) lands before the destination
// flushes.
//
// Snapshots are keyed off the simulated cycle the machine reaches, so
// during event-driven fast-forward jumps the sink emits one row at the
// latest boundary crossed rather than a row per idle interval; output
// stays byte-identical across runs.
type IntervalSink struct {
	dst      Sink
	interval uint64
	st       *stats.Run
	prev     stats.Run
	next     uint64 // next boundary cycle to snapshot at
	last     uint64 // last boundary actually emitted
	ev       Event  // reused for every row, as the Bus reuses its event
}

// NewIntervalSink snapshots every interval cycles into dst. The stats
// set arrives later via the bus (Machine.Attach → BindStats).
func NewIntervalSink(dst Sink, interval uint64) *IntervalSink {
	if interval == 0 {
		interval = 1
	}
	return &IntervalSink{dst: dst, interval: interval, next: interval}
}

// BindStats hands over the live counter set (called via Bus.BindStats).
func (s *IntervalSink) BindStats(st *stats.Run) { s.st = st }

// Event ignores ordinary events; the sink is purely cycle-driven.
func (s *IntervalSink) Event(*Event) {}

// CycleReached emits a snapshot when now crosses an interval boundary.
func (s *IntervalSink) CycleReached(now timing.Cycle) {
	if s.st == nil || uint64(now) < s.next {
		return
	}
	boundary := uint64(now) / s.interval * s.interval
	s.snapshot(boundary)
	s.next = boundary + s.interval
}

// Close emits the final partial interval (st.Cycles is set by the run
// loop before the bus is closed).
func (s *IntervalSink) Close() error {
	if s.st != nil && s.st.Cycles > s.last {
		s.snapshot(s.st.Cycles)
	}
	return nil
}

// snapshot emits the counter deltas since the previous snapshot as
// metrics events stamped at cycle cyc. Zero deltas are skipped.
func (s *IntervalSink) snapshot(cyc uint64) {
	s.last = cyc
	cur := *s.st
	s.row(cyc, "instructions", cur.Instructions-s.prev.Instructions)
	s.row(cyc, "memops", cur.MemOps-s.prev.MemOps)
	for _, op := range stats.OpClasses() {
		s.row(cyc, "stall:"+op.String(), cur.SCStallCycles[op]-s.prev.SCStallCycles[op])
	}
	for _, mc := range stats.MsgClasses() {
		s.row(cyc, "flits:"+mc.String(), cur.Flits[mc]-s.prev.Flits[mc])
	}
	for _, cat := range stats.CycleCats() {
		s.row(cyc, "acct:"+cat.String(), cur.CycleAccount[cat]-s.prev.CycleAccount[cat])
	}
	s.row(cyc, "l1-expired", cur.L1LoadExpired-s.prev.L1LoadExpired)
	s.row(cyc, "l1-renewed", cur.L1Renewed-s.prev.L1Renewed)
	s.row(cyc, "dram-reads", cur.DRAMReads-s.prev.DRAMReads)
	s.row(cyc, "dram-writes", cur.DRAMWrites-s.prev.DRAMWrites)
	s.prev = cur
}

func (s *IntervalSink) row(cyc uint64, label string, delta uint64) {
	if delta == 0 {
		return
	}
	s.ev = Event{Cycle: timing.Cycle(cyc), Kind: KindMetrics,
		Dst: -1, Warp: -1, Label: label, Val: delta}
	s.dst.Event(&s.ev)
}
