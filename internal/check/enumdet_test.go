package check

import (
	"sort"
	"strings"
	"testing"

	"rccsim/internal/workload"
)

// flattenSet renders an SCSet as one canonical string for equality checks.
func flattenSet(s *SCSet) string {
	var parts []string
	for out, mems := range s.Outcomes {
		var ms []string
		for m := range mems {
			ms = append(ms, m)
		}
		sort.Strings(ms)
		parts = append(parts, out+"->"+strings.Join(ms, "/"))
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// TestEnumerateBoundaryDeterministic pins the satellite bugfix: barrier
// groups used to be collected by ranging over a map, so a program sitting
// exactly at the MaxStates / MaxEntries boundary could flip between a
// verdict and an "exceeds limits" error across runs. Measure the exact
// exploration counts once, then assert that limits equal to the counts
// always succeed (with identical counts and outcome set) and limits one
// below always fail — across repeated enumerations, which under Go's
// randomized map iteration covers many orders.
func TestEnumerateBoundaryDeterministic(t *testing.T) {
	p := boundaryProg()

	set0, states, entries, err := p.EnumerateStats(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	if states < 10 {
		t.Fatalf("test program explores only %d states; too trivial to exercise the boundary", states)
	}
	want := flattenSet(set0)

	for i := 0; i < 20; i++ {
		// Limits exactly at the measured counts: must always succeed,
		// with bit-identical counts and outcome set.
		set, st, en, err := p.EnumerateStats(EnumLimits{MaxStates: states, MaxEntries: entries})
		if err != nil {
			t.Fatalf("iter %d: enumeration at exact limits failed: %v", i, err)
		}
		if st != states || en != entries {
			t.Fatalf("iter %d: counts changed: (%d,%d) vs (%d,%d)", i, st, en, states, entries)
		}
		if got := flattenSet(set); got != want {
			t.Fatalf("iter %d: outcome set changed:\n got %s\nwant %s", i, got, want)
		}
		// One below the state limit: must always error.
		if _, _, _, err := p.EnumerateStats(EnumLimits{MaxStates: states - 1, MaxEntries: entries}); err == nil {
			t.Fatalf("iter %d: enumeration under the state limit unexpectedly succeeded", i)
		}
		// One below the entry limit: must always error.
		if _, _, _, err := p.EnumerateStats(EnumLimits{MaxStates: states, MaxEntries: entries - 1}); err == nil {
			t.Fatalf("iter %d: enumeration under the entry limit unexpectedly succeeded", i)
		}
	}
}

// boundaryProg has three SMs (three barrier groups in the map) with a
// mid-program barrier each, so group handling is actually on the
// explored path.
func boundaryProg() *Prog {
	return &Prog{Lines: 2, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{1}},
		}},
		{SM: 1, Warp: 0, Ops: []Op{
			{Kind: workload.OpStore, Lines: []uint64{1}, Val: 2},
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
		{SM: 2, Warp: 0, Ops: []Op{
			{Kind: workload.OpLoad, Lines: []uint64{0}},
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{1}},
		}},
	}}
}

// TestEnumeratorDropsLargeStorage: an enumerator reused from the pool
// keeps its storage for the next program only up to keepBytes, so one
// program near the limits does not pin its slabs in every pooled
// enumerator; and it keeps no reference into the last program it ran.
func TestEnumeratorDropsLargeStorage(t *testing.T) {
	e := new(enumerator)
	big := boundaryProg()
	if _, _, _, err := e.run(big, DefaultEnumLimits()); err != nil {
		t.Fatal(err)
	}
	kept := cap(e.rows)
	small := sb()
	want, err := small.Enumerate(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	got, _, _, err := e.run(small, DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	if flattenSet(got) != flattenSet(want) {
		t.Fatalf("reused enumerator: %s, want %s", flattenSet(got), flattenSet(want))
	}
	if cap(e.rows) != kept {
		t.Fatalf("rows below the bound were not reused: cap %d, was %d", cap(e.rows), kept)
	}

	// Stand in for a program near MaxEntries: slabs past the bound.
	e.rows = make([]uint64, 0, keepBytes/8+1)
	e.lists = make([]int32, 0, keepBytes/4+1)
	if _, _, _, err := e.run(small, DefaultEnumLimits()); err != nil {
		t.Fatal(err)
	}
	if cap(e.rows)*8 > keepBytes || cap(e.lists)*4 > keepBytes {
		t.Fatalf("slabs past keepBytes survived a small program: rows cap %d, lists cap %d", cap(e.rows), cap(e.lists))
	}

	for ti, ops := range e.threads[:cap(e.threads)] {
		for _, op := range ops[:cap(ops)] {
			if op.lines != nil {
				t.Fatalf("thread %d keeps the lines %v of the last program", ti, op.lines)
			}
		}
	}
}
