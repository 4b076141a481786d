package main

import (
	"path/filepath"
	"testing"

	"rccsim/internal/check"
)

// TestRunRejectsUncheckedRuns: options under which no run would be
// checked exit 2 before fuzzing, where they used to report every seed
// clean; a small valid fuzz exits 0.
func TestRunRejectsUncheckedRuns(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.json")
	for _, args := range [][]string{
		{"-seeds", "5", "-jitter", "2000000"},
		{"-seeds", "3", "-runs", "0"},
		{"-seeds", "3", "-runs", "65537"},
		{"-seeds", "2", "-protocols", "TCW"},
		{"-seeds", "2", "-protocols", "BOGUS"},
		{"-no-such-flag"},
	} {
		if code := run(append(args, "-j", "1", "-out", out)); code != 2 {
			t.Errorf("rccfuzz %v: exit %d, want 2", args, code)
		}
	}
	if code := run([]string{"-seeds", "2", "-runs", "1", "-j", "1", "-out", out}); code != 0 {
		t.Errorf("rccfuzz -seeds 2 -runs 1: exit %d, want 0", code)
	}
}

// TestFuzzCheckErrorExits2: a seed whose check could not run for any
// reason but an enumeration limit stops the fuzz with exit 2 instead of
// counting as a skip.
func TestFuzzCheckErrorExits2(t *testing.T) {
	opts := check.DefaultOptions()
	opts.RunSeeds = 0 // CheckProg refuses it
	if code := fuzz(3, 0, 2, false, filepath.Join(t.TempDir(), "r.json"), opts, fuzzMetrics{}); code != 2 {
		t.Errorf("fuzz with a failing check: exit %d, want 2", code)
	}
}

// TestReplayRejectsBadOptions: a repro whose recorded options would check
// nothing, or run or jitter past their bounds, exits 2 instead of
// replaying.
func TestReplayRejectsBadOptions(t *testing.T) {
	prog := check.LeaseWitnessProg()
	for name, edit := range map[string]func(*check.Repro){
		"no runs":       func(r *check.Repro) { r.RunSeeds = 0 },
		"no protocols":  func(r *check.Repro) { r.Protocols = nil },
		"long jitter":   func(r *check.Repro) { r.Jitter = 1<<20 + 1 },
		"runs past cap": func(r *check.Repro) { r.RunSeeds = 1_000_000_000 },
	} {
		r := check.NewRepro(0, prog, nil, check.DefaultOptions())
		edit(r)
		path := filepath.Join(t.TempDir(), "r.json")
		if err := check.WriteRepro(path, r); err != nil {
			t.Fatal(err)
		}
		if code := run([]string{"-repro", path}); code != 2 {
			t.Errorf("%s: replay exit %d, want 2", name, code)
		}
	}
}
