package ledger

import (
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rccsim/internal/stats"
)

var update = flag.Bool("update", false, "rewrite the diff golden file")

// synthRun builds a counter set satisfying the closed-sum invariant
// (TotalAccounted == Cycles × sms) or fails the test.
func synthRun(t *testing.T, cycles uint64, sms int, account map[stats.CycleCat]uint64) *stats.Run {
	t.Helper()
	st := stats.New()
	st.Cycles = cycles
	var sum uint64
	for c, v := range account {
		st.CycleAccount[c] = v
		sum += v
	}
	if sum != cycles*uint64(sms) {
		t.Fatalf("bad fixture: accounted %d != cycles %d x %d SMs", sum, cycles, sms)
	}
	return st
}

// fixturePair is the canonical synthetic regression: the current entry is
// ~15%% slower on the wall clock (well past the 10%% tolerance, small
// MADs so it is significant) and its simulated run grew 10%% in cycles
// with the dram category as the planted largest mover.
func fixturePair(t *testing.T) (*Entry, *Entry) {
	t.Helper()
	host := Host{OS: "linux", Arch: "amd64", Kernel: "k1", GoVersion: "go1.22"}
	mkBench := func(ns, scs [3]float64) []BenchRec {
		recs := []BenchRec{{Name: "BenchmarkSimulatorThroughput", Iterations: 2}}
		for i := 0; i < 3; i++ {
			recs[0].Samples = append(recs[0].Samples, Sample{
				NsPerOp: ns[i],
				Metrics: map[string]float64{"simCycles/s": scs[i], "allocs/op": 7500},
			})
		}
		return recs
	}
	mkRun := func(st *stats.Run, spanScale, heatA, heatB uint64) []RunRec {
		rec := RunRec{
			Label: "BH/RCC",
			Spans: map[string]SpanQ{
				"total": {P50: 100 * spanScale, P90: 200 * spanScale, P99: 300 * spanScale, Max: 400 * spanScale},
				"l2":    {P50: 50 * spanScale, P90: 60 * spanScale, P99: 70 * spanScale, Max: 80 * spanScale},
			},
			Heat: []HeatLine{
				{Line: 0x100, Total: heatA, Counts: map[string]uint64{"reads": heatA}},
				{Line: 0x200, Total: heatB, Counts: map[string]uint64{"writes": heatB}},
			},
		}
		rec.SetStats(st)
		return []RunRec{rec}
	}
	base := &Entry{
		Kind: KindRun, Label: "base", Host: host,
		Benchmarks: mkBench([3]float64{100, 101, 99}, [3]float64{950, 955, 945}),
		Runs: mkRun(synthRun(t, 1000, 2, map[stats.CycleCat]uint64{
			stats.CatIssued: 1200, stats.CatSCStallLoad: 300, stats.CatDRAM: 500,
		}), 1, 50, 30),
	}
	cur := &Entry{
		Kind: KindRun, Label: "cur", Host: host,
		Benchmarks: mkBench([3]float64{117, 118, 116}, [3]float64{810, 805, 815}),
		Runs: mkRun(synthRun(t, 1100, 2, map[stats.CycleCat]uint64{
			stats.CatIssued: 1200, stats.CatSCStallLoad: 300, stats.CatDRAM: 700,
		}), 2, 80, 10),
	}
	return base, cur
}

// TestAttributionPlantedDelta pins the attribution hierarchy on a
// synthetic pair with a known planted category delta: the largest mover
// is named, shares sum to exactly 100.0 on both sides, and the category
// deltas reconcile exactly with the closed-sum invariant.
func TestAttributionPlantedDelta(t *testing.T) {
	base, cur := fixturePair(t)
	d := Compute("b1", base, "c1", cur, Options{})

	if d.CrossHost {
		t.Fatal("same-host pair flagged as cross-host")
	}
	agg := d.Aggregate
	if agg == nil {
		t.Fatal("no aggregate attribution")
	}
	if agg.LargestMover != "dram" {
		t.Fatalf("largest mover = %q, want dram", agg.LargestMover)
	}
	if agg.LargestMoverPts <= 0 {
		t.Fatalf("largest mover pts = %v, want > 0", agg.LargestMoverPts)
	}
	var baseSum, curSum, ptsSum float64
	for _, c := range agg.Account {
		baseSum += c.BaseShare
		curSum += c.CurShare
		ptsSum += c.DeltaPts
	}
	if math.Abs(baseSum-100) > 1e-6 || math.Abs(curSum-100) > 1e-6 {
		t.Fatalf("shares do not sum to 100.0: base %.10f cur %.10f", baseSum, curSum)
	}
	if math.Abs(ptsSum) > 0.11 {
		t.Fatalf("share deltas sum to %.2f pts, want ~0", ptsSum)
	}
	// Exact reconciliation: Σ Δcycles == Δ TotalAccounted == ΔCycles × SMs.
	if !agg.InvariantOK || agg.SMs != 2 {
		t.Fatalf("invariant not recovered: ok=%v sms=%d", agg.InvariantOK, agg.SMs)
	}
	wantDelta := int64(2200 - 2000)
	if agg.DeltaAccounted != wantDelta {
		t.Fatalf("Σ Δcycles = %d, want %d", agg.DeltaAccounted, wantDelta)
	}
	if agg.DeltaAccounted != int64(agg.CurCycles-agg.BaseCycles)*int64(agg.SMs) {
		t.Fatal("category deltas do not reconcile with ΔCycles × SMs")
	}

	// Both gates must fire: the wall-clock top line (14.7% > 10%,
	// significant vs the small MADs) and the behaviour gate (cycles +10%
	// > 2%) naming the planted category.
	if d.Ok() || len(d.Failures) != 2 {
		t.Fatalf("failures = %v, want top-line + behaviour", d.Failures)
	}
	if !strings.Contains(d.Failures[0], "top-line") {
		t.Fatalf("first failure not the top line: %q", d.Failures[0])
	}
	if !strings.Contains(d.Failures[1], "largest mover: dram") {
		t.Fatalf("behaviour failure does not name the planted category: %q", d.Failures[1])
	}

	if d.Topline == nil || !d.Topline.Significant {
		t.Fatal("top-line regression should be significant vs the fixture MADs")
	}
	if got := d.Topline.Base; got.Median != 950 || got.MAD != 5 || got.N != 3 {
		t.Fatalf("base stat = %+v, want median 950 MAD 5 n 3", got)
	}
}

// TestSharesAlwaysSumTo100 fuzzes the largest-remainder share rendering
// over random cycle accounts.
func TestSharesAlwaysSumTo100(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		mk := func() *stats.Run {
			st := stats.New()
			var sum uint64
			for _, c := range stats.CycleCats() {
				v := uint64(rng.Intn(1000))
				st.CycleAccount[c] = v
				sum += v
			}
			st.Cycles = sum // 1 simulated SM
			return st
		}
		rd := runDelta("fuzz", mk(), mk())
		var baseSum, curSum float64
		for _, c := range rd.Account {
			baseSum += c.BaseShare
			curSum += c.CurShare
		}
		if math.Abs(baseSum-100) > 1e-6 || math.Abs(curSum-100) > 1e-6 {
			t.Fatalf("trial %d: shares sum to %.10f / %.10f", trial, baseSum, curSum)
		}
	}
}

// benchEntry is a bench-kind entry holding three samples of one metric.
func benchEntry(bench, metric string, vs [3]float64) *Entry {
	e := &Entry{Kind: KindBench, Label: "n", Host: Host{OS: "linux", Arch: "amd64"},
		Benchmarks: []BenchRec{{Name: bench}}}
	for _, v := range vs {
		e.Benchmarks[0].Samples = append(e.Benchmarks[0].Samples,
			Sample{NsPerOp: 1, Metrics: map[string]float64{metric: v}})
	}
	return e
}

// TestNoiseGate: a delta inside the MAD-scaled noise band is reported but
// never failed, even when it exceeds the tolerance.
func TestNoiseGate(t *testing.T) {
	mk := func(scs [3]float64) *Entry { return benchEntry("BenchmarkSimulatorThroughput", "simCycles/s", scs) }
	base, cur := mk([3]float64{950, 850, 900}), mk([3]float64{880, 780, 830})
	d := Compute("b", base, "c", cur, Options{TolerancePct: 5})
	if d.Topline == nil {
		t.Fatal("no top line")
	}
	if d.Topline.RegressPct < 5 {
		t.Fatalf("fixture broken: regression %.1f%% should exceed the 5%% tolerance", d.Topline.RegressPct)
	}
	if d.Topline.Significant {
		t.Fatalf("regression %.1f%% inside noise band %.1f%% flagged significant",
			d.Topline.RegressPct, d.Topline.NoisePct)
	}
	if !d.Ok() {
		t.Fatalf("noise-band delta failed the gate: %v", d.Failures)
	}
}

// TestToplineRunsPerSecondScale: a top line measured in runs/s (single
// digits, as the rccperf suites record) must render its median and MAD
// legibly instead of rounding them to whole numbers.
func TestToplineRunsPerSecondScale(t *testing.T) {
	const bench = "BenchmarkRccperf/suite-weak"
	base := benchEntry(bench, "runs/s", [3]float64{4.21, 4.28, 4.35})
	cur := benchEntry(bench, "runs/s", [3]float64{5.61, 5.66, 5.70})
	out := Compute("b", base, "c", cur, Options{TopBench: bench, TopMetric: "runs/s"}).Format()
	for _, want := range []string{
		"base  median 4.28  ±MAD 0.07  (n=3)",
		"cur   median 5.66  ±MAD 0.04  (n=3)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("top line missing %q:\n%s", want, out)
		}
	}
}

// TestCrossHostSkipsWallClock: a cross-host pair never fails on
// wall-clock numbers, but the host-independent behaviour gate still
// fires.
func TestCrossHostSkipsWallClock(t *testing.T) {
	base, cur := fixturePair(t)
	cur.Host.Kernel = "k2"
	d := Compute("b", base, "c", cur, Options{})
	if !d.CrossHost {
		t.Fatal("kernel change not flagged as cross-host")
	}
	if len(d.Failures) != 1 || !strings.Contains(d.Failures[0], "simulated cycles") {
		t.Fatalf("cross-host failures = %v, want only the behaviour gate", d.Failures)
	}
	if len(d.Notes) == 0 || !strings.Contains(d.Notes[0], "cross-host") {
		t.Fatalf("missing cross-host note: %v", d.Notes)
	}
}

// TestPlant: the planted entry preserves the closed-sum invariant
// exactly, worsens the wall-clock metrics by the same fraction, and the
// resulting diff names the planted category.
func TestPlant(t *testing.T) {
	base, _ := fixturePair(t)
	p, err := Plant(base, stats.CatMSHRFull, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if p.Host != base.Host {
		t.Fatal("planted entry must keep the host fingerprint (same-host compare)")
	}
	st, err := p.Runs[0].DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	sms, ok := st.AccountedSMs()
	if !ok || sms != 2 {
		t.Fatalf("planted run violates the closed-sum invariant (sms=%d ok=%v)", sms, ok)
	}
	if st.Cycles != 1250 || st.CycleAccount[stats.CatMSHRFull] != 500 {
		t.Fatalf("plant arithmetic: cycles=%d mshr=%d, want 1250/500", st.Cycles, st.CycleAccount[stats.CatMSHRFull])
	}
	if got := p.Benchmarks[0].Samples[0].Metrics["simCycles/s"]; math.Abs(got-950/1.25) > 1e-9 {
		t.Fatalf("planted simCycles/s = %v, want %v", got, 950/1.25)
	}
	d := Compute("b", base, "p", p, Options{})
	if d.Ok() {
		t.Fatal("planted regression passed the gate")
	}
	found := false
	for _, f := range d.Failures {
		if strings.Contains(f, "mshr-full") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no failure names the planted category: %v", d.Failures)
	}

	if _, err := Plant(base, stats.CatMSHRFull, 0); err == nil {
		t.Fatal("Plant(frac=0) should error")
	}
}

// TestWindowBaseline: samples pool across comparable entries only, and
// runs come from the newest contributor.
func TestWindowBaseline(t *testing.T) {
	ref := Host{OS: "linux", Arch: "amd64", Kernel: "k1"}
	mk := func(kernel string, v float64) *Entry {
		return &Entry{Kind: KindBench, Label: "e", Host: Host{OS: "linux", Arch: "amd64", Kernel: kernel},
			Benchmarks: []BenchRec{{Name: "B", Samples: []Sample{{NsPerOp: v}}}}}
	}
	base := WindowBaseline([]*Entry{mk("k1", 1), mk("k0", 2), mk("k1", 3), nil}, ref)
	b := base.Bench("B")
	if b == nil || len(b.Samples) != 2 {
		t.Fatalf("pooled %d samples, want 2 (cross-host entry skipped)", len(b.Samples))
	}
	if b.Samples[0].NsPerOp != 1 || b.Samples[1].NsPerOp != 3 {
		t.Fatalf("pooled wrong samples: %+v", b.Samples)
	}
	if !strings.Contains(base.Label, "2 entries") {
		t.Fatalf("label = %q", base.Label)
	}
}

// TestDiffGolden byte-pins the rendered diff: the same entry pair must
// produce these exact bytes on every run (the property CI's text
// assertions and the /ledger consumers rely on). Run with -update to
// regenerate after an intentional format change.
func TestDiffGolden(t *testing.T) {
	base, cur := fixturePair(t)
	d := Compute("1111222233334444", base, "5555666677778888", cur, Options{})
	got := d.Format()
	// Determinism under the race detector: recompute and re-render.
	if again := Compute("1111222233334444", base, "5555666677778888", cur, Options{}).Format(); again != got {
		t.Fatal("two computations of the same pair rendered different bytes")
	}
	path := filepath.Join("testdata", "diff_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("diff output drifted from golden (run go test ./internal/ledger -run Golden -update if intentional)\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
