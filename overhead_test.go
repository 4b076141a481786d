package rccsim_test

import (
	"testing"
	"time"

	"rccsim"
)

// TestObsOverheadBudget guards the observability overhead budget on one
// KMN run under RCC: the fully enabled path (contention sketch attached,
// tracker folding every run, causal-span recorder sampling every 64th op)
// must stay close to the disabled path (nil heat, nil recorder, no
// tracker — what every run pays when -serve/-hotspots/-spans are off).
// The disabled path deliberately goes through RunSpanned with a nil
// recorder, so the span layer's hot-path branches are inside the measured
// baseline. The rccperf observed workload measures observer cost across
// all 12 kernels (bench/README.md).
//
// Timing assertions on shared CI hosts flake, so the in-test threshold is
// deliberately generous (1.5×) and the runs are interleaved best-of-N so
// machine-load drift cancels. The full observer set of the observed
// workload (trace bus with an InvariantSink and an event counter, a
// 64-line heat sketch, a 1-in-16 span recorder; 12 kernels × RCC/MESI on
// Table III) costs more than this test's set: on a 2-vCPU KVM guest,
// twelve alternating passes put it at 1.44× [1.36, 1.48] the disabled
// path before spans were decided once per op and L2 versions moved to
// per-partition tables, and at 1.28× [1.25, 1.32] after (median
// [quartiles]; see EXPERIMENTS.md "Observers pay per tracked op").
func TestObsOverheadBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	if raceEnabled {
		// The race detector instruments every memory access, so the
		// ratio measured here says nothing about production cost.
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
		res, err := rccsim.RunSpanned(cfg, "KMN", rccsim.Observers{Heat: heat, Sp: sp})
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
