package main

import (
	"testing"

	"rccsim/internal/ledger"
)

// TestCIGate: -ci exits with errRegressed on a same-host ns/op regression
// past the tolerance and outside the noise band, and passes a delta inside
// the band (+15% against a ±138% band).
func TestCIGate(t *testing.T) {
	dir := t.TempDir()
	l, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	host := ledger.Host{OS: "linux", Arch: "amd64", Kernel: "k1"}
	for i, ns := range [][]float64{{100, 101, 99}, {120, 121, 119}, {115, 160, 70}} {
		e := &ledger.Entry{Kind: ledger.KindBench, Label: string(rune('a' + i)), Host: host,
			Benchmarks: []ledger.BenchRec{{Name: "BenchmarkRccperf/suite-sc"}}}
		for _, v := range ns {
			e.Benchmarks[0].Samples = append(e.Benchmarks[0].Samples, ledger.Sample{NsPerOp: v})
		}
		if _, err := l.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	o := opts{dir: dir, ci: true, diffOpt: ledger.Options{TolerancePct: 10}}
	o.args = []string{"@0", "@1"}
	if err := run(o); err != errRegressed {
		t.Fatalf("+20%% ns/op with ±6%% noise: run = %v, want errRegressed", err)
	}
	o.args = []string{"@0", "@2"}
	if err := run(o); err != nil {
		t.Fatalf("+15%% ns/op inside the noise band: run = %v, want nil", err)
	}
}
