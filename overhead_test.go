package rccsim_test

import (
	"testing"
	"time"

	"rccsim"
)

// TestObsOverheadBudget guards the observability overhead budget on the
// BenchmarkSimulatorThroughput workload (KMN under RCC): the fully enabled
// path (contention sketch attached, tracker folding every run, causal-span
// recorder sampling every 64th op) must stay close to the disabled path
// (nil heat, nil recorder, no tracker — what every run pays when
// -serve/-hotspots/-spans are off). The disabled path deliberately goes
// through RunSpanned with a nil recorder, so the span layer's hot-path
// branches are inside the measured baseline; that baseline itself is
// budgeted at ≤2% vs the pre-observability one, enforced cross-PR by
// scripts/bench_compare.sh against the checked-in ledger's baselines.
//
// Timing assertions on shared CI hosts flake, so the in-test threshold is
// deliberately generous (1.5×) and the runs are interleaved best-of-N so
// machine-load drift cancels; the measured enabled overhead on an idle
// host is a few percent (see EXPERIMENTS.md "Observability II").
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		// The race detector instruments every memory access and the
		// span recorder's mutex, which each sampled op's marks still
		// take; the ratio measured here says nothing about production
		// cost under -race.
		t.Skip("timing test meaningless under -race")
	}
	cfg := rccsim.DefaultConfig()
	cfg.Scale = 0.25
	cfg.Protocol = rccsim.RCC

	run := func(enabled bool) time.Duration {
		var heat *rccsim.Heat
		var tr *rccsim.RunTracker
		var sp *rccsim.SpanRecorder
		if enabled {
			heat = rccsim.NewHeat(256)
			tr = rccsim.NewRunTracker(rccsim.NewMetricsRegistry())
			sp = rccsim.NewSpanRecorder(64)
		}
		start := time.Now()
		res, err := rccsim.RunSpanned(cfg, "KMN", nil, heat, sp)
		if err != nil {
			t.Fatal(err)
		}
		tr.Done("KMN/RCC", res.Stats)
		return time.Since(start)
	}

	const rounds = 5
	best := func(enabled bool, samples []time.Duration) time.Duration {
		min := samples[0]
		for _, d := range samples[1:] {
			if d < min {
				min = d
			}
		}
		return min
	}
	var off, on []time.Duration
	run(false) // warm caches before timing
	run(true)
	for i := 0; i < rounds; i++ {
		off = append(off, run(false))
		on = append(on, run(true))
	}
	offBest, onBest := best(false, off), best(true, on)
	ratio := float64(onBest) / float64(offBest)
	t.Logf("disabled %v, enabled %v, ratio %.3f", offBest, onBest, ratio)
	if ratio > 1.5 {
		t.Errorf("enabled observability costs %.2fx the disabled path (budget 1.5x in-test; ~2%% on idle hosts)", ratio)
	}
}
