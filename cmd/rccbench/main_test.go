package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStatsOnlyFlagsRejected: a figure experiment exits 2 on every
// stats-only flag before anything runs, and "stats" exits 2 on span
// exports without -spans before it simulates. The -trace file, which
// "stats" creates before its run, must not exist afterwards.
func TestStatsOnlyFlagsRejected(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "t.jsonl")
	flags.Trace = tracePath
	defer func() { flags.Trace, *spansOut = "", "" }()

	for _, name := range statsOnly {
		if code := realMain([]string{"table1"}, map[string]bool{name: true}); code != 2 {
			t.Errorf("table1 with -%s: exit %d, want 2", name, code)
		}
	}
	*spansOut = filepath.Join(dir, "spans.json")
	if code := realMain([]string{"stats", "DLB", "RCC"}, map[string]bool{"trace": true, "spans-out": true}); code != 2 {
		t.Errorf("stats with -spans-out but no -spans: exit %d, want 2", code)
	}
	for _, p := range []string{tracePath, *spansOut} {
		if _, err := os.Stat(p); !os.IsNotExist(err) {
			t.Errorf("a rejected run created %s (stat error %v)", p, err)
		}
	}
	*spansOut = ""
	if code := realMain([]string{"table1"}, nil); code != 0 {
		t.Errorf("table1 without stats-only flags: exit %d, want 0", code)
	}
}
