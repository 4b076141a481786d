package mem

import (
	"fmt"
	"testing"
	"testing/quick"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

type meta struct{ v int }

func mod16(line uint64) int { return int(line % 16) }

func TestArrayLookupMiss(t *testing.T) {
	a := NewArray[meta](16, 4, mod16)
	if a.Lookup(5) != nil {
		t.Fatal("lookup on empty array should miss")
	}
}

func TestArrayAllocateAndLookup(t *testing.T) {
	a := NewArray[meta](16, 4, mod16)
	e, v, ok := a.Allocate(5, nil)
	if !ok || v.WasValid {
		t.Fatal("first allocation should not evict")
	}
	e.Meta.v = 42
	got := a.Lookup(5)
	if got == nil || got.Meta.v != 42 {
		t.Fatal("lookup after allocate failed")
	}
	// Re-allocating the same line returns the same entry without reset.
	e2, _, ok := a.Allocate(5, nil)
	if !ok || e2 != got || e2.Meta.v != 42 {
		t.Fatal("duplicate allocate should return existing entry")
	}
}

func TestArrayLRUEviction(t *testing.T) {
	a := NewArray[meta](1, 2, func(uint64) int { return 0 })
	a.Allocate(1, nil)
	a.Allocate(2, nil)
	// Touch 1 so 2 becomes LRU.
	a.Touch(a.Lookup(1))
	_, v, ok := a.Allocate(3, nil)
	if !ok || !v.WasValid || v.Tag != 2 {
		t.Fatalf("expected eviction of 2, got %+v ok=%v", v, ok)
	}
	if a.Lookup(2) != nil {
		t.Fatal("2 should have been displaced")
	}
	if a.Lookup(1) == nil || a.Lookup(3) == nil {
		t.Fatal("1 and 3 should be resident")
	}
}

func TestArrayPinnedWays(t *testing.T) {
	a := NewArray[meta](1, 2, func(uint64) int { return 0 })
	a.Allocate(1, nil)
	a.Allocate(2, nil)
	none := func(*Entry[meta]) bool { return false }
	if _, _, ok := a.Allocate(3, none); ok {
		t.Fatal("allocation should fail when all ways pinned")
	}
	only2 := func(e *Entry[meta]) bool { return e.Tag == 2 }
	_, v, ok := a.Allocate(3, only2)
	if !ok || v.Tag != 2 {
		t.Fatalf("selective eviction failed: %+v ok=%v", v, ok)
	}
}

func TestArrayInvalidate(t *testing.T) {
	a := NewArray[meta](16, 4, mod16)
	e, _, _ := a.Allocate(7, nil)
	a.Invalidate(e)
	if a.Lookup(7) != nil {
		t.Fatal("invalidated line still visible")
	}
	if a.CountValid() != 0 {
		t.Fatal("CountValid after invalidate != 0")
	}
}

func TestArrayForEach(t *testing.T) {
	a := NewArray[meta](16, 4, mod16)
	for i := uint64(0); i < 40; i++ {
		a.Allocate(i, nil)
	}
	n := a.CountValid()
	if n == 0 || n > 64 {
		t.Fatalf("CountValid = %d", n)
	}
	// Flush everything.
	a.ForEach(func(e *Entry[meta]) { a.Invalidate(e) })
	if a.CountValid() != 0 {
		t.Fatal("flush incomplete")
	}
}

// Property: after any sequence of allocations, each line that Lookup finds
// maps to its own tag, no set exceeds its ways, and no tag appears twice.
func TestArrayPropertyNoDuplicates(t *testing.T) {
	f := func(lines []uint16) bool {
		a := NewArray[meta](8, 2, func(l uint64) int { return int(l % 8) })
		for _, l := range lines {
			a.Allocate(uint64(l), nil)
		}
		seen := map[uint64]int{}
		a.ForEach(func(e *Entry[meta]) { seen[e.Tag]++ })
		for tag, n := range seen {
			if n != 1 {
				return false
			}
			if got := a.Lookup(tag); got == nil || got.Tag != tag {
				return false
			}
		}
		return a.CountValid() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestMSHRsBasics(t *testing.T) {
	type entry struct{ n int }
	tbl := NewMSHRs[entry](2, nil)
	e := tbl.Alloc(10)
	if e == nil {
		t.Fatal("alloc failed")
	}
	e.n = 5
	if tbl.Get(10).n != 5 {
		t.Fatal("get returned wrong entry")
	}
	if tbl.Alloc(10) != nil {
		t.Fatal("duplicate alloc should fail")
	}
	if tbl.Alloc(11) == nil {
		t.Fatal("second alloc should succeed")
	}
	if !tbl.Full() || tbl.Alloc(12) != nil {
		t.Fatal("capacity not enforced")
	}
	tbl.Free(10)
	if tbl.Get(10) != nil || tbl.Len() != 1 {
		t.Fatal("free failed")
	}
	if tbl.Alloc(12) == nil {
		t.Fatal("alloc after free should succeed")
	}
}

func TestMSHRsLinesSorted(t *testing.T) {
	type entry struct{}
	tbl := NewMSHRs[entry](16, nil)
	for _, l := range []uint64{9, 3, 7, 1, 5} {
		tbl.Alloc(l)
	}
	lines := tbl.Lines()
	for i := 1; i < len(lines); i++ {
		if lines[i] < lines[i-1] {
			t.Fatalf("Lines not sorted: %v", lines)
		}
	}
	if len(lines) != 5 {
		t.Fatalf("got %d lines", len(lines))
	}
}

func dramConfig() config.Config {
	c := config.Default()
	return c
}

// drainDRAM ticks the channel until n completions arrive, returning the
// completion cycle of each request id.
func drainDRAM(t *testing.T, d *DRAM, n int) map[uint64]timing.Cycle {
	t.Helper()
	out := make(map[uint64]timing.Cycle)
	for at := timing.Cycle(0); at < 100000; at++ {
		d.Tick(at)
		for {
			r, ok := d.PopDone(at)
			if !ok {
				break
			}
			out[r.ID] = at
		}
		if len(out) == n {
			return out
		}
	}
	t.Fatalf("only %d of %d completions", len(out), n)
	return nil
}

func TestDRAMCompletionOrderAndLatency(t *testing.T) {
	st := stats.New()
	cfg := dramConfig()
	d := NewDRAM(cfg, st)
	d.Submit(DRAMReq{Line: 0, ID: 1}, 0)
	if d.Pending() != 1 {
		t.Fatal("pending != 1")
	}
	if _, ok := d.PopDone(0); ok {
		t.Fatal("completed instantly")
	}
	if d.NextEvent() == timing.Never {
		t.Fatal("no event scheduled")
	}
	done := drainDRAM(t, d, 1)
	// Minimum latency: pipe + (row miss) + bus + pipe.
	min := timing.Cycle(cfg.DRAMPipeLatency + cfg.DRAMtRP + cfg.DRAMtRCD + cfg.DRAMtCL + cfg.DRAMBusCycles + cfg.DRAMPipeLatency)
	if done[1] != min {
		t.Fatalf("first access latency = %d, want %d", done[1], min)
	}
	if st.DRAMReads != 1 || st.DRAMRowMisses != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDRAMRowHit(t *testing.T) {
	st := stats.New()
	d := NewDRAM(dramConfig(), st)
	d.Submit(DRAMReq{Line: 0, ID: 1}, 0)
	d.Submit(DRAMReq{Line: 1, ID: 2}, 0) // same row
	drainDRAM(t, d, 2)
	if st.DRAMRowHits != 1 || st.DRAMRowMisses != 1 {
		t.Fatalf("row hits/misses = %d/%d", st.DRAMRowHits, st.DRAMRowMisses)
	}
}

// TestDRAMFRFCFSPrefersRowHits: with an open row and a queue containing an
// older row-conflict plus a newer row-hit on the same bank, the scheduler
// services the row hit first (the definition of FR-FCFS).
func TestDRAMFRFCFSPrefersRowHits(t *testing.T) {
	st := stats.New()
	cfg := dramConfig()
	d := NewDRAM(cfg, st)
	sameBankStride := uint64(cfg.DRAMRowLines * cfg.DRAMBanksPerPart)
	d.Submit(DRAMReq{Line: 0, ID: 1}, 0) // opens row 0 of bank 0
	// Wait until the first is issued, then enqueue conflict + hit.
	for at := timing.Cycle(0); at < 200; at++ {
		d.Tick(at)
	}
	d.Submit(DRAMReq{Line: sameBankStride, ID: 2}, 200) // row conflict (older)
	d.Submit(DRAMReq{Line: 1, ID: 3}, 200)              // row hit (newer)
	done := drainDRAM(t, d, 3)
	if done[3] >= done[2] {
		t.Fatalf("FR-FCFS violated: hit done at %d, conflict at %d", done[3], done[2])
	}
}

func TestDRAMBankConflictSerializes(t *testing.T) {
	st := stats.New()
	cfg := dramConfig()
	d := NewDRAM(cfg, st)
	// Two different rows in the same bank: second must finish later.
	sameBankStride := uint64(cfg.DRAMRowLines * cfg.DRAMBanksPerPart)
	d.Submit(DRAMReq{Line: 0, ID: 1}, 0)
	d.Submit(DRAMReq{Line: sameBankStride, ID: 2}, 0)
	done := drainDRAM(t, d, 2)
	if done[2] <= done[1] {
		t.Fatalf("bank conflict not serialized: %d <= %d", done[2], done[1])
	}
}

func TestDRAMWriteCounted(t *testing.T) {
	st := stats.New()
	d := NewDRAM(dramConfig(), st)
	d.Submit(DRAMReq{Line: 0, Write: true, ID: 1}, 0)
	drainDRAM(t, d, 1)
	if st.DRAMWrites != 1 {
		t.Fatal("write not counted")
	}
}

// TestMSHRsMatchMap checks the table against a map model under random
// Alloc/Get/Free traffic that fills it to capacity (growing the slot
// array from 16 to 4 × capacity), drains it with backward-shift deletes
// over the rehashed layout, and fills it again. After every operation
// each live entry must be reachable from its home slot, and Lines must
// list exactly the model's keys in ascending order.
func TestMSHRsMatchMap(t *testing.T) {
	type entry struct{ line uint64 }
	const capacity = 64
	tbl := NewMSHRs[entry](capacity, nil)
	model := map[uint64]*entry{}
	sizes := map[int]bool{len(tbl.slots): true}
	fullRejects := 0
	r := timing.NewRNG(5)
	check := func(op string, line uint64) {
		t.Helper()
		if tbl.Len() != len(model) || tbl.Full() != (len(model) == capacity) {
			t.Fatalf("%s %d: Len %d Full %v, model has %d", op, line, tbl.Len(), tbl.Full(), len(model))
		}
		if 4*tbl.Len() > len(tbl.slots) {
			t.Fatalf("%s %d: %d entries in %d slots", op, line, tbl.Len(), len(tbl.slots))
		}
		mask := len(tbl.slots) - 1
		for i, s := range tbl.slots {
			if s.e == nil {
				continue
			}
			for j := tbl.home(s.line); j != i; j = (j + 1) & mask {
				if tbl.slots[j].e == nil {
					t.Fatalf("%s %d: line %d in slot %d unreachable from home %d", op, line, s.line, i, tbl.home(s.line))
				}
			}
		}
		lines := tbl.Lines()
		if len(lines) != len(model) {
			t.Fatalf("%s %d: Lines has %d keys, model %d", op, line, len(lines), len(model))
		}
		for i, l := range lines {
			if model[l] == nil || (i > 0 && lines[i-1] >= l) {
				t.Fatalf("%s %d: Lines = %v", op, line, lines)
			}
		}
	}
	// Lines cluster in a small range (plenty of duplicates and probe
	// collisions), with an occasional far-away one.
	pick := func() uint64 {
		if r.Intn(20) == 0 {
			return r.Uint64()
		}
		return uint64(r.Intn(3 * capacity))
	}
	for _, allocBias := range []int{85, 10, 85, 50} {
		for step := 0; step < 3000; step++ {
			line := pick()
			switch k := r.Intn(100); {
			case k < allocBias:
				e := tbl.Alloc(line)
				switch {
				case model[line] != nil || len(model) == capacity:
					if e != nil {
						t.Fatalf("Alloc %d succeeded (duplicate %v, %d live)", line, model[line] != nil, len(model))
					}
					if model[line] == nil {
						fullRejects++
					}
				case e == nil:
					t.Fatalf("Alloc %d failed with %d live", line, len(model))
				default:
					if *e != (entry{}) {
						t.Fatalf("Alloc %d returned unreset payload %+v", line, *e)
					}
					e.line = line
					model[line] = e
				}
				check("Alloc", line)
			case k < allocBias+(100-allocBias)/2:
				if got := tbl.Get(line); got != model[line] || (got != nil && got.line != line) {
					t.Fatalf("Get %d = %v, model %v", line, got, model[line])
				}
			default:
				tbl.Free(line)
				delete(model, line)
				check("Free", line)
			}
			sizes[len(tbl.slots)] = true
		}
		for line, e := range model {
			if tbl.Get(line) != e {
				t.Fatalf("Get %d lost its entry", line)
			}
		}
		seen := 0
		tbl.ForEach(func(line uint64, e *entry) {
			if model[line] != e {
				t.Fatalf("ForEach visited %d → %v, model %v", line, e, model[line])
			}
			seen++
		})
		if seen != len(model) {
			t.Fatalf("ForEach visited %d of %d entries", seen, len(model))
		}
	}
	if fullRejects == 0 {
		t.Fatal("the table never filled to capacity")
	}
	for size := mshrMinSlots; size <= 4*capacity; size *= 2 {
		if !sizes[size] {
			t.Fatalf("slot array never had %d slots (saw %v)", size, sizes)
		}
	}
}

// TestArrayResetMatchesNew: an array reset after random use — including
// line ^0, whose mirror slot holds the invalid marker — answers every
// later Lookup, Allocate victim and ForEach exactly as a new array given
// the same operations.
func TestArrayResetMatchesNew(t *testing.T) {
	r := timing.NewRNG(3)
	pick := func() uint64 {
		if r.Intn(10) == 0 {
			return ^uint64(0)
		}
		return uint64(r.Intn(96))
	}
	ops := func(a *Array[meta], n int, check func(step int)) {
		for step := 0; step < n; step++ {
			line := pick()
			switch r.Intn(3) {
			case 0:
				if e, _, ok := a.Allocate(line, nil); ok {
					e.Meta.v = step
				}
			case 1:
				if e := a.Lookup(line); e != nil {
					a.Touch(e)
				}
			case 2:
				if e := a.Lookup(line); e != nil {
					a.Invalidate(e)
				}
			}
			if check != nil {
				check(step)
			}
		}
	}
	used := NewArray[meta](16, 4, mod16)
	ops(used, 2000, nil)
	used.Reset()
	if n := used.CountValid(); n != 0 {
		t.Fatalf("reset array holds %d valid entries", n)
	}
	fresh := NewArray[meta](16, 4, mod16)
	seed := r.Uint64()
	*r = *timing.NewRNG(seed)
	var trace []string
	ops(fresh, 2000, func(int) {
		var lines []uint64
		fresh.ForEach(func(e *Entry[meta]) { lines = append(lines, e.Tag, uint64(e.Meta.v)) })
		trace = append(trace, fmt.Sprint(lines))
	})
	*r = *timing.NewRNG(seed)
	ops(used, 2000, func(step int) {
		var lines []uint64
		used.ForEach(func(e *Entry[meta]) { lines = append(lines, e.Tag, uint64(e.Meta.v)) })
		if got := fmt.Sprint(lines); got != trace[step] {
			t.Fatalf("step %d: reset array holds %s, new array %s", step, got, trace[step])
		}
	})
}

// TestMSHRsResetMatchesNew: a table reset after growing past its initial
// slot array visits entries in the same order as a new table given the
// same operations, and recycles the released payloads.
func TestMSHRsResetMatchesNew(t *testing.T) {
	type entry struct{ n int }
	used := NewMSHRs[entry](64, nil)
	for l := uint64(0); l < 40; l++ {
		used.Alloc(l * 7).n = int(l)
	}
	used.Reset()
	if used.Len() != 0 || len(used.slots) != mshrMinSlots || len(used.free) != 40 {
		t.Fatalf("reset table: Len %d, %d slots, %d free payloads", used.Len(), len(used.slots), len(used.free))
	}
	fresh := NewMSHRs[entry](64, nil)
	r := timing.NewRNG(9)
	for step := 0; step < 3000; step++ {
		line := uint64(r.Intn(200))
		if r.Bool(0.6) {
			a, b := used.Alloc(line), fresh.Alloc(line)
			if (a == nil) != (b == nil) {
				t.Fatalf("step %d: Alloc(%d) differs", step, line)
			}
			if a != nil {
				if a.n != 0 {
					t.Fatalf("step %d: recycled payload not zeroed", step)
				}
				a.n, b.n = step, step
			}
		} else {
			used.Free(line)
			fresh.Free(line)
		}
		var got, want []uint64
		used.ForEach(func(l uint64, e *entry) { got = append(got, l, uint64(e.n)) })
		fresh.ForEach(func(l uint64, e *entry) { want = append(want, l, uint64(e.n)) })
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("step %d: ForEach order %v, new table %v", step, got, want)
		}
	}
}
