package obs

import (
	"strings"
	"testing"
)

// TestNilHeat pins the disabled contract: a nil *Heat must absorb every
// call without panicking (mirrors trace.Bus's nil-receiver fast path).
func TestNilHeat(t *testing.T) {
	var h *Heat
	h.Add(0x40, HeatReads, 0)
	h.Merge(nil)
	if _, ok := h.Hottest(); ok {
		t.Fatal("nil heat reports a hottest line")
	}
	if got := h.TopK(); got != nil {
		t.Fatalf("nil heat TopK = %v, want nil", got)
	}
}

// TestHeatMetricStrings is the exhaustiveness check for the metric enum.
func TestHeatMetricStrings(t *testing.T) {
	if len(HeatMetrics()) != int(numHeatMetrics) {
		t.Fatalf("HeatMetrics returned %d, want %d", len(HeatMetrics()), numHeatMetrics)
	}
	seen := map[string]bool{}
	for _, m := range HeatMetrics() {
		s := m.String()
		if strings.HasPrefix(s, "HeatMetric(") || seen[s] {
			t.Fatalf("bad or duplicate metric name %q", s)
		}
		seen[s] = true
	}
}

// TestHeatBounded checks the sketch never tracks more than K lines no
// matter how many distinct lines stream through it.
func TestHeatBounded(t *testing.T) {
	const k = 8
	h := NewHeat(k)
	for line := uint64(0); line < 10_000; line++ {
		h.Add(line*64, HeatReads, int(line%4))
	}
	if n := len(h.TopK()); n > k {
		t.Fatalf("sketch tracks %d lines, want <= %d", n, k)
	}
}

// TestHeatTopK checks heavy hitters survive eviction pressure and come
// back sorted with exact counts (heavy lines are never evicted, so their
// Err must stay zero).
func TestHeatTopK(t *testing.T) {
	h := NewHeat(4)
	for i := 0; i < 100; i++ {
		h.Add(0x100, HeatWrites, 0)
		if i < 60 {
			h.Add(0x200, HeatReads, 1)
		}
		// Background noise: distinct cold lines contending for slots.
		h.Add(uint64(0x1000+i*64), HeatReads, 2)
	}
	top := h.TopK()
	if len(top) < 2 {
		t.Fatalf("TopK returned %d entries, want >= 2", len(top))
	}
	if top[0].Line != 0x100 || top[0].Counts[HeatWrites] != 100 || top[0].Err != 0 {
		t.Fatalf("hottest entry wrong: %+v", top[0])
	}
	if top[1].Line != 0x200 || top[1].Counts[HeatReads] != 60 {
		t.Fatalf("second entry wrong: %+v", top[1])
	}
	if line, ok := h.Hottest(); !ok || line != 0x100 {
		t.Fatalf("Hottest = %#x, %v; want 0x100, true", line, ok)
	}
}

// TestHeatPingPong checks cross-SM transitions count only on owner change.
func TestHeatPingPong(t *testing.T) {
	h := NewHeat(4)
	h.Add(0x40, HeatWrites, 0)
	h.Add(0x40, HeatWrites, 0) // same SM: no ping-pong
	h.Add(0x40, HeatWrites, 1) // 0 -> 1
	h.Add(0x40, HeatWrites, 1)
	h.Add(0x40, HeatWrites, 0) // 1 -> 0
	h.Add(0x40, HeatReads, -1) // no SM attribution: ignored for ping-pong
	top := h.TopK()
	if top[0].Counts[HeatPingPong] != 2 {
		t.Fatalf("ping-pong = %d, want 2 (entry %+v)", top[0].Counts[HeatPingPong], top[0])
	}
}

// TestHeatMerge checks point-sketch merging accumulates counts.
func TestHeatMerge(t *testing.T) {
	a, b := NewHeat(8), NewHeat(8)
	for i := 0; i < 10; i++ {
		a.Add(0x40, HeatReads, 0)
		b.Add(0x40, HeatReads, 1)
		b.Add(0x80, HeatWrites, 1)
	}
	a.Merge(b)
	top := a.TopK()
	if top[0].Line != 0x40 || top[0].Counts[HeatReads] != 20 {
		t.Fatalf("merged entry wrong: %+v", top[0])
	}
	if top[1].Line != 0x80 || top[1].Counts[HeatWrites] != 10 {
		t.Fatalf("merged second entry wrong: %+v", top[1])
	}
}

// TestHeatDeterministic checks the same add sequence yields the same
// table (the sketch must not depend on map iteration order).
func TestHeatDeterministic(t *testing.T) {
	render := func() string {
		h := NewHeat(4)
		for i := 0; i < 500; i++ {
			h.Add(uint64((i%37)*64), HeatMetric(i%int(numHeatMetrics)), i%3)
		}
		var sb strings.Builder
		h.WriteTable(&sb, 4)
		return sb.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("render %d differs:\n%s\nvs\n%s", i, got, first)
		}
	}
	if !strings.Contains(first, "line") {
		t.Fatalf("table missing header:\n%s", first)
	}
}

// TestHeatMergeOrderIndependent is the -j-independence guard: a parallel
// sweep's workers finish in nondeterministic order, so folding the same
// per-point sketches into an accumulator in any permutation must produce
// the same sketch after the canonical TopK sort — even when each point
// saw eviction churn and the union of entry sets exceeds the accumulator's
// K.
func TestHeatMergeOrderIndependent(t *testing.T) {
	const k, points = 8, 6
	mkPoint := func(p int) *Heat {
		h := NewHeat(k)
		for i := 0; i < 400; i++ {
			// Shared heavy hitters plus per-point cold lines fighting for
			// slots, so each point sketch carries nonzero Err bounds.
			h.Add(0x100, HeatWrites, p)
			h.Add(uint64(0x1000+(p*997+i*31)%200*64), HeatReads, p)
			if i%3 == 0 {
				h.Add(uint64(0x200+uint64(p%2)*64), HeatRenewals, p)
			}
		}
		return h
	}
	sketches := make([]*Heat, points)
	for p := range sketches {
		sketches[p] = mkPoint(p)
	}
	render := func(order []int) string {
		out := NewHeat(k)
		for _, p := range order {
			out.Merge(sketches[p])
		}
		var sb strings.Builder
		out.WriteTable(&sb, 0)
		return sb.String()
	}
	want := render([]int{0, 1, 2, 3, 4, 5})
	for _, order := range [][]int{
		{5, 4, 3, 2, 1, 0},
		{2, 0, 5, 1, 4, 3},
		{3, 5, 0, 4, 2, 1},
	} {
		if got := render(order); got != want {
			t.Fatalf("merge order %v changed the sketch:\n%s\nvs point order:\n%s", order, got, want)
		}
	}
}

// TestHeatEvictionWeights checks the packed eviction keys evictMin scans
// stay equal to each entry's Total()+Err through admissions, evictions,
// ping-pong counts and merges, and then keep evicting by that key.
func TestHeatEvictionWeights(t *testing.T) {
	check := func(h *Heat, when string) {
		t.Helper()
		for i := range h.entries {
			if e := &h.entries[i]; h.weight[i] != e.Total()+e.Err {
				t.Fatalf("%s: line %#x weight %d, want Total+Err %d", when, e.Line, h.weight[i], e.Total()+e.Err)
			}
		}
	}
	a, b := NewHeat(4), NewHeat(4)
	for i := 0; i < 400; i++ {
		a.Add(uint64(i%13)*64, HeatMetric(i%int(numHeatMetrics)), i%3-1)
		b.Add(uint64(i%7+5)*64, HeatWrites, i%2)
	}
	check(a, "after adds")
	check(b, "after adds")
	a.Merge(b)
	check(a, "after merge")
	for i := 0; i < 400; i++ {
		a.Add(uint64(i%29+40)*64, HeatReads, -1)
	}
	check(a, "after adds past a merge")
}
