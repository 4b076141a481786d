// Package obs is the observability layer: contention heatmaps (a bounded
// top-K sketch over cache lines), a hand-rolled OpenMetrics registry, and
// the live introspection HTTP server used by the CLIs. Everything here is
// strictly additive: a nil *Heat or absent server costs one predictable
// branch on the hot paths, mirroring the trace.Bus contract.
package obs

import (
	"fmt"
	"io"
	"sort"
)

// HeatMetric is one per-line contention counter tracked by the sketch.
type HeatMetric int

const (
	// HeatReads: GETS serviced by the L2 for this line.
	HeatReads HeatMetric = iota
	// HeatWrites: stores/atomics performed at the L2.
	HeatWrites
	// HeatRenewals: lease renewals granted (RCC).
	HeatRenewals
	// HeatVerBumps: logical-version advances caused by writes (RCC).
	HeatVerBumps
	// HeatExpiryWaits: L1 lookups that found a valid-but-expired copy, or
	// TCS stores stalled waiting for a lease to run out.
	HeatExpiryWaits
	// HeatPingPong: consecutive writes to the line from different SMs
	// (write-write migration), or MESI invalidation rounds.
	HeatPingPong
	numHeatMetrics
)

// String returns the stable wire name (tables, metrics labels).
func (m HeatMetric) String() string {
	switch m {
	case HeatReads:
		return "reads"
	case HeatWrites:
		return "writes"
	case HeatRenewals:
		return "renewals"
	case HeatVerBumps:
		return "ver-bumps"
	case HeatExpiryWaits:
		return "expiry-waits"
	case HeatPingPong:
		return "ping-pong"
	}
	return fmt.Sprintf("HeatMetric(%d)", int(m))
}

// HeatMetrics lists every heat metric in display order.
func HeatMetrics() []HeatMetric {
	out := make([]HeatMetric, numHeatMetrics)
	for i := range out {
		out[i] = HeatMetric(i)
	}
	return out
}

// HeatEntry is one tracked line with its contention counters.
type HeatEntry struct {
	Line   uint64
	Counts [numHeatMetrics]uint64
	// Err bounds the touches this line may have received before it was
	// admitted (inherited from the evicted entry, space-saving style):
	// the line's true total is in [Total, Total+Err], modulo admission
	// sampling.
	Err    uint64
	lastSM int32 // last SM to write (−1 unknown); ping-pong detection
}

// Total sums the entry's counters (the sketch's eviction key).
func (e *HeatEntry) Total() uint64 {
	var t uint64
	for _, c := range e.Counts {
		t += c
	}
	return t
}

// Heat is a bounded top-K contention sketch over cache lines
// (space-saving: when full, the minimum-total entry is evicted and the
// newcomer inherits its total as an error bound, so heavy hitters are
// never lost and memory stays O(K)). Admission of never-seen lines is
// sampled 1-in-sampleEvery once the sketch is full, keeping the cold-line
// churn off the hot path. A nil *Heat is a disabled sketch: every method
// is a no-op, so callers hook it unconditionally.
//
// Heat is NOT safe for concurrent use; like stats.Run it must be owned by
// exactly one machine. Determinism: ties on eviction break toward the
// lowest slot index, so identical runs produce identical sketches.
type Heat struct {
	k       int
	entries []HeatEntry
	index   map[uint64]int // line → slot in entries
	// weight mirrors each entry's eviction key, Total()+Err, so evictMin
	// scans one packed slice instead of summing every entry's counters.
	weight []uint64

	// cold-line admission sampling (only once the sketch is full).
	sampleEvery uint64
	skipped     uint64
}

// sampleEvery is the default cold-line admission period: a line not yet
// tracked is only considered for admission every Nth touch once the
// sketch is full. Heavy hitters reach the sketch while it still has free
// slots (or quickly after, 1-in-16 of their touches admit them).
const defaultSampleEvery = 16

// NewHeat builds a sketch tracking the top k lines. k <= 0 returns nil
// (the disabled sketch).
func NewHeat(k int) *Heat {
	if k <= 0 {
		return nil
	}
	return &Heat{
		k:           k,
		entries:     make([]HeatEntry, 0, k),
		index:       make(map[uint64]int, k),
		weight:      make([]uint64, 0, k),
		sampleEvery: defaultSampleEvery,
	}
}

// Add records one touch of metric m on line. sm is the touching SM for
// ping-pong detection (pass −1 when unknown or not a write); callers pass
// it only on writes/atomics, so ping-pong counts write-write migration.
// The nil check lives in this thin wrapper so it inlines into the cache
// controllers' hot paths: a detached sketch costs one branch, not a call.
func (h *Heat) Add(line uint64, m HeatMetric, sm int) {
	if h == nil {
		return
	}
	h.add(line, m, sm)
}

func (h *Heat) add(line uint64, m HeatMetric, sm int) {
	i, ok := h.index[line]
	if !ok {
		if len(h.entries) >= h.k {
			// Full: sample cold-line admissions, then evict the minimum.
			h.skipped++
			if h.skipped%h.sampleEvery != 0 {
				return
			}
			i = h.evictMin()
		} else {
			h.entries = append(h.entries, HeatEntry{})
			h.weight = append(h.weight, 0)
			i = len(h.entries) - 1
		}
		h.entries[i] = HeatEntry{Line: line, Err: h.entries[i].Err, lastSM: -1}
		h.weight[i] = h.entries[i].Err
		h.index[line] = i
	}
	e := &h.entries[i]
	e.Counts[m]++
	h.weight[i]++
	if sm >= 0 {
		if e.lastSM >= 0 && e.lastSM != int32(sm) {
			e.Counts[HeatPingPong]++
			h.weight[i]++
		}
		e.lastSM = int32(sm)
	}
}

// evictMin removes the minimum-total entry (first minimum by slot index)
// and returns its slot; the slot's Err is pre-loaded with the evicted
// total so the newcomer inherits it (space-saving invariant).
func (h *Heat) evictMin() int {
	min, at := h.weight[0], 0
	for i, t := range h.weight {
		if t < min {
			min, at = t, i
		}
	}
	delete(h.index, h.entries[at].Line)
	h.entries[at].Err = min
	return at
}

// TopK returns the tracked entries sorted by total descending (line
// ascending on ties — deterministic output for tests and goldens).
func (h *Heat) TopK() []HeatEntry {
	if h == nil {
		return nil
	}
	out := make([]HeatEntry, len(h.entries))
	copy(out, h.entries)
	sort.Slice(out, func(i, j int) bool {
		ti, tj := out[i].Total(), out[j].Total()
		if ti != tj {
			return ti > tj
		}
		return out[i].Line < out[j].Line
	})
	return out
}

// Merge folds other's entries into h (sweeps merge per-point sketches).
// Totals add; error bounds add conservatively. Merging is deliberately
// order-independent: the accumulator takes the union of entry sets (it may
// grow past K — a merge target holds at most points×K entries, and TopK
// callers already slice to what they display) instead of evicting under
// pressure the way Add does. Mid-merge eviction would make the surviving
// set depend on the order point sketches are folded in — exactly the
// completion-order nondeterminism a parallel (-j) sweep must not leak.
func (h *Heat) Merge(other *Heat) {
	if h == nil || other == nil {
		return
	}
	for oi := range other.entries {
		oe := &other.entries[oi]
		i, ok := h.index[oe.Line]
		if !ok {
			// Adopt the line; write-adjacency (lastSM) does not survive a
			// merge, so ping-pong counting stays per-machine.
			h.entries = append(h.entries, HeatEntry{Line: oe.Line, lastSM: -1})
			h.weight = append(h.weight, 0)
			i = len(h.entries) - 1
			h.index[oe.Line] = i
		}
		e := &h.entries[i]
		for m := range e.Counts {
			e.Counts[m] += oe.Counts[m]
		}
		e.Err += oe.Err
		h.weight[i] += other.weight[oi]
	}
}

// Hottest returns the line with the largest total and true, or 0, false
// for an empty (or nil) sketch.
func (h *Heat) Hottest() (uint64, bool) {
	if h == nil || len(h.entries) == 0 {
		return 0, false
	}
	best, at := h.entries[0].Total(), 0
	for i := 1; i < len(h.entries); i++ {
		if t := h.entries[i].Total(); t > best || (t == best && h.entries[i].Line < h.entries[at].Line) {
			best, at = t, i
		}
	}
	return h.entries[at].Line, true
}

// WriteTable renders the top n entries as an aligned text table.
func (h *Heat) WriteTable(w io.Writer, n int) {
	entries := h.TopK()
	if n > 0 && len(entries) > n {
		entries = entries[:n]
	}
	fmt.Fprintf(w, "%-12s %10s", "line", "total")
	for _, m := range HeatMetrics() {
		fmt.Fprintf(w, " %12s", m)
	}
	fmt.Fprintf(w, " %8s\n", "±err")
	for i := range entries {
		e := &entries[i]
		fmt.Fprintf(w, "%#-12x %10d", e.Line, e.Total())
		for _, m := range HeatMetrics() {
			fmt.Fprintf(w, " %12d", e.Counts[m])
		}
		fmt.Fprintf(w, " %8d\n", e.Err)
	}
}
