package trace

import (
	"fmt"
	"strings"
)

// invariantTail is how many trailing events an InvariantSink keeps for
// its failure report.
const invariantTail = 16

// InvariantSink checks the RCC/Tardis timestamp invariants over the live
// event stream (the runtime counterpart of the lemmas in "A Proof of
// Correctness for the Tardis Cache Coherence Protocol"):
//
//  1. Every lease grant/renewal satisfies ver <= exp — a block is never
//     leased into its own past.
//  2. Per (partition, line), the L2 version never regresses: writes,
//     atomics, fills and evictions carry monotonically non-decreasing
//     ver (evicted timestamps fold into the partition's memory clock, so
//     refills resume at or after the evicted version).
//  3. Per core, the logical clock's read and write views never regress.
//
// All state resets at the documented rollover points (Sec. III-D): L2
// versions on the machine-wide RolloverReset, a core's clock on its
// RolloverFlush. The sink records the first violation and a tail of the
// events leading up to it, then goes inert; Err surfaces the failure.
type InvariantSink struct {
	onFail func(error) // optional: invoked once, at violation time
	err    error

	l2ver  map[[2]uint64]uint64 // (partition, line) -> max version seen
	clocks [][2]uint64          // core -> (read, write) views, zero until seen

	tail [invariantTail]Event
	n    int // events seen (ring write cursor = n % invariantTail)
}

// NewInvariantSink builds a checker. onFail, if non-nil, is called once
// with the violation (letting tests and CLIs fail fast); Err returns the
// same error afterwards.
func NewInvariantSink(onFail func(error)) *InvariantSink {
	return &InvariantSink{onFail: onFail, l2ver: make(map[[2]uint64]uint64)}
}

// Reset clears the sink for a new run, keeping its storage.
func (s *InvariantSink) Reset() {
	s.err = nil
	clear(s.l2ver)
	clear(s.clocks)
	s.n = 0
}

// Err returns the first recorded violation, if any.
func (s *InvariantSink) Err() error { return s.err }

func (s *InvariantSink) Close() error { return s.err }

func (s *InvariantSink) Event(e *Event) {
	if s.err != nil {
		return
	}
	// Copied field by field: assigning *e whole is a bulk copy that, while
	// the collector runs, also takes a bulk write barrier per event.
	t := &s.tail[s.n%invariantTail]
	t.Cycle, t.Kind, t.Src, t.Dst, t.Warp, t.Line, t.Label = e.Cycle, e.Kind, e.Src, e.Dst, e.Warp, e.Line, e.Label
	t.Now, t.Ver, t.Exp, t.Val, t.Flits = e.Now, e.Ver, e.Exp, e.Val, e.Flits
	s.n++

	switch e.Kind {
	case KindLease:
		switch e.Label {
		case LeaseGrant, LeaseRenew:
			if e.Ver > e.Exp {
				s.fail(e, "lease %s has ver=%d > exp=%d (block leased into its own past)",
					e.Label, e.Ver, e.Exp)
				return
			}
			s.checkL2Ver(e)
		}
	case KindL2State:
		s.checkL2Ver(e)
	case KindClock:
		// Cores are the SMs, numbered from 0: a slice indexed by core
		// holds their clocks without a map lookup per event.
		for e.Src >= len(s.clocks) {
			s.clocks = append(s.clocks, [2]uint64{})
		}
		v := &s.clocks[e.Src]
		if e.Now < v[0] || e.Ver < v[1] {
			s.fail(e, "core %d clock regressed: read %d->%d, write %d->%d",
				e.Src, v[0], e.Now, v[1], e.Ver)
			return
		}
		v[0], v[1] = e.Now, e.Ver
	case KindRollover:
		switch e.Label {
		case RolloverReset:
			// L2 timestamps across the machine restart from zero.
			clear(s.l2ver)
		case RolloverFlush:
			// This core zeroed its clock along with its tags.
			if e.Src >= 0 && e.Src < len(s.clocks) {
				s.clocks[e.Src] = [2]uint64{}
			}
		}
	}
}

func (s *InvariantSink) checkL2Ver(e *Event) {
	key := [2]uint64{uint64(e.Src), e.Line}
	if prev, ok := s.l2ver[key]; ok && e.Ver < prev {
		s.fail(e, "L2 partition %d line %d version regressed %d -> %d (%s %s)",
			e.Src, e.Line, prev, e.Ver, e.Kind, e.Label)
		return
	}
	s.l2ver[key] = e.Ver
}

func (s *InvariantSink) fail(e *Event, format string, args ...any) {
	var sb strings.Builder
	fmt.Fprintf(&sb, "trace invariant violated at cycle %d: ", e.Cycle)
	fmt.Fprintf(&sb, format, args...)
	sb.WriteString("\n  trace tail (oldest first):")
	start := 0
	if s.n > invariantTail {
		start = s.n - invariantTail
	}
	for i := start; i < s.n; i++ {
		fmt.Fprintf(&sb, "\n    %s", s.tail[i%invariantTail].String())
	}
	s.err = fmt.Errorf("%s", sb.String())
	if s.onFail != nil {
		s.onFail(s.err)
	}
}
