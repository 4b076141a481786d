package report

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs/span"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestPercentSharesSumTo100 pins the largest-remainder property on the
// classic pathological splits: rows rounded independently would print
// 99.9% or 100.1%, PercentShares must hand out the missing/extra tenth
// deterministically and leave zero rows untouched.
func TestPercentSharesSumTo100(t *testing.T) {
	cases := [][]uint64{
		{1, 1, 1},                // 33.3×3 = 99.9 independently
		{2, 2, 2, 1},             // 28.6×3+14.3 = 100.1 independently
		{1, 0, 1, 1},             // zero row must stay exactly 0.0
		{7},                      // single row is exactly 100.0
		{999, 1},                 // tiny share must not round to 0 twice
		{3, 3, 3, 3, 3, 3, 3},    // 14.3×7 = 100.1
		{123456, 654321, 999999}, // arbitrary large values
	}
	for _, values := range cases {
		var total uint64
		for _, v := range values {
			total += v
		}
		pc := PercentShares(values, total)
		var tenths int
		for i, p := range pc {
			tenths += int(p*10 + 0.5)
			if values[i] == 0 && p != 0 {
				t.Errorf("%v: zero row got %.1f%%", values, p)
			}
			exact := 100 * float64(values[i]) / float64(total)
			if p < exact-0.11 || p > exact+0.11 {
				t.Errorf("%v: row %d = %.1f%%, exact %.3f%% — off by more than a tenth", values, i, p, exact)
			}
		}
		if tenths != 1000 {
			t.Errorf("%v: shares sum to %.1f%%, want 100.0%%", values, float64(tenths)/10)
		}
	}
	// Determinism incl. ties: equal remainders must break the same way
	// every call.
	a := fmt.Sprint(PercentShares([]uint64{1, 1, 1, 1, 1, 1}, 6))
	b := fmt.Sprint(PercentShares([]uint64{1, 1, 1, 1, 1, 1}, 6))
	if a != b {
		t.Fatalf("tie-break not deterministic: %s vs %s", a, b)
	}
	if got := PercentShares(nil, 0); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

var pctRow = regexp.MustCompile(`\((\s*\d+\.\d)%\)`)

// TestFormatPercentagesReconcile runs a real simulation and checks every
// percentage column in the rendered report sums to exactly 100.0 — the
// regression the independent per-row rounding used to fail.
func TestFormatPercentagesReconcile(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	b, _ := workload.ByName("DLB")
	res, err := sim.RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	out := Format(cfg, res.Stats)
	for _, section := range []string{"top-down cycle accounting", "interconnect traffic"} {
		i := strings.Index(out, section)
		if i < 0 {
			t.Fatalf("report missing %q:\n%s", section, out)
		}
		// The section runs to the next blank line.
		body := out[i:]
		if j := strings.Index(body, "\n\n"); j >= 0 {
			body = body[:j]
		}
		var tenths int
		for _, m := range pctRow.FindAllStringSubmatch(body, -1) {
			f, err := strconv.ParseFloat(strings.TrimSpace(m[1]), 64)
			if err != nil {
				t.Fatal(err)
			}
			tenths += int(f*10 + 0.5)
		}
		if tenths != 1000 {
			t.Errorf("%q rows sum to %.1f%%, want exactly 100.0%%\n%s", section, float64(tenths)/10, body)
		}
	}
}

// TestFormatSpans renders the span section off a real run and checks its
// shape: waterfall rows, a critical path, slowest ops, and the blame
// shares reconciling to 100.0%.
func TestFormatSpans(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	b, _ := workload.ByName("DLB")
	rec := span.NewRecorder(1)
	if _, err := sim.RunBenchmark(cfg, b, trace.Observers{Sp: rec}); err != nil {
		t.Fatal(err)
	}
	out := FormatSpans(cfg, rec, 3)
	for _, want := range []string{
		"causal spans (RCC", "end-to-end latency:", "segment",
		"critical path:", "slowest sampled ops:", "dram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("span section missing %q:\n%s", want, out)
		}
	}
	var tenths int
	for _, m := range regexp.MustCompile(`(\d+\.\d)%`).FindAllStringSubmatch(out, -1) {
		f, _ := strconv.ParseFloat(m[1], 64)
		tenths += int(f*10 + 0.5)
	}
	if tenths != 1000 {
		t.Errorf("blame shares sum to %.1f%%:\n%s", float64(tenths)/10, out)
	}
	if FormatSpans(cfg, nil, 3) != "" {
		t.Error("nil recorder should render nothing")
	}
	if FormatSpans(cfg, span.NewRecorder(1), 3) != "" {
		t.Error("empty recorder should render nothing")
	}
}

// TestFormatEmptyStats guards the zero-total paths of PercentShares within
// a full render.
func TestFormatEmptyStats(t *testing.T) {
	cfg := config.Small()
	out := Format(cfg, stats.New())
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("empty-run report has NaN/Inf:\n%s", out)
	}
}
