package trace

import (
	"fmt"
	"math/bits"
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

	l2ver  []verTable  // partition -> (line -> max version seen)
	clocks [][2]uint64 // core -> (read, write) views, zero until seen

	tail [invariantTail]Event
	n    int // events seen (ring write cursor = n % invariantTail)
}

// NewInvariantSink builds a checker. onFail, if non-nil, is called once
// with the violation (letting tests and CLIs fail fast); Err returns the
// same error afterwards.
func NewInvariantSink(onFail func(error)) *InvariantSink {
	return &InvariantSink{onFail: onFail}
}

// Reset clears the sink for a new run, keeping its storage.
func (s *InvariantSink) Reset() {
	s.err = nil
	s.clearL2Ver()
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
			s.clearL2Ver()
		case RolloverFlush:
			// This core zeroed its clock along with its tags.
			if e.Src >= 0 && e.Src < len(s.clocks) {
				s.clocks[e.Src] = [2]uint64{}
			}
		}
	}
}

func (s *InvariantSink) checkL2Ver(e *Event) {
	// L2 events carry their partition in Src, numbered from 0.
	for e.Src >= len(s.l2ver) {
		s.l2ver = append(s.l2ver, verTable{})
	}
	v := s.l2ver[e.Src].slot(e.Line)
	if e.Ver < v.ver {
		s.fail(e, "L2 partition %d line %d version regressed %d -> %d (%s %s)",
			e.Src, e.Line, v.ver, e.Ver, e.Kind, e.Label)
		return
	}
	v.ver = e.Ver
}

func (s *InvariantSink) clearL2Ver() {
	for i := range s.l2ver {
		s.l2ver[i].clear()
	}
}

// verTable is one partition's line -> max version table: open addressing
// with linear probing over a power-of-two array of 16-byte slots kept at
// most half full, so an event costs one multiply and, almost always, one
// probe. A slot holds line+1, so a zero key marks it empty; line 2^64-1,
// whose key would be zero, has a slot of its own.
type verTable struct {
	slots []verSlot
	shift uint // 64 - log2(len(slots))
	n     int  // used slots
	top   verSlot
}

type verSlot struct{ key, ver uint64 }

// slot returns line's slot, claiming one (version 0) if line is new.
func (t *verTable) slot(line uint64) *verSlot {
	key := line + 1
	if key == 0 {
		return &t.top
	}
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	for i := int((line * 0x9e3779b97f4a7c15) >> t.shift); ; i = (i + 1) & mask {
		v := &t.slots[i]
		if v.key == key {
			return v
		}
		if v.key == 0 {
			v.key = key
			t.n++
			return v
		}
	}
}

func (t *verTable) grow() {
	old := t.slots
	size := max(2*len(old), 8)
	t.slots = make([]verSlot, size)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, v := range old {
		if v.key != 0 {
			t.slot(v.key - 1).ver = v.ver
		}
	}
}

// clear empties the table, keeping its storage.
func (t *verTable) clear() {
	clear(t.slots)
	t.n = 0
	t.top = verSlot{}
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
