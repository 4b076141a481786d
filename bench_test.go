// Benchmarks that regenerate every table and figure of the paper's
// evaluation (see DESIGN.md §3 for the index). Each benchmark reports the
// headline metric of its figure via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// reproduces the whole evaluation. The workload scale is reduced relative
// to cmd/rccbench (which runs the full Table III sizes) to keep bench
// iterations tractable; shapes are stable across scales.
package rccsim_test

import (
	"testing"

	"rccsim"
	"rccsim/internal/config"
	"rccsim/internal/experiments"
)

// benchBase is the machine the benchmarks run: full Table III geometry,
// reduced trace lengths.
func benchBase() rccsim.Config {
	cfg := rccsim.DefaultConfig()
	cfg.Scale = 0.25
	return cfg
}

// BenchmarkFig1 regenerates the motivation study (Fig 1a–d): SC stall
// rates, store blame, load/store latency, and the SC-IDEAL speedup on the
// MESI baseline. Reported metric: gmean SC-IDEAL speedup (inter-wg).
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		var inter []float64
		for _, row := range rows {
			if row.Inter {
				inter = append(inter, row.IdealSpeedup)
			}
		}
		b.ReportMetric(experiments.GMean(inter), "idealSpeedupX")
	}
}

// BenchmarkFig6 regenerates the lease expiry / renewability measurement.
// Reported metric: mean renewable fraction over the inter-wg benchmarks.
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, row := range rows {
			if row.Inter {
				sum += row.RenewableFrac
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "renewableFrac")
	}
}

// BenchmarkFig7 regenerates the renewal and predictor ablations.
// Reported metric: mean +R/-R traffic ratio over the inter-wg benchmarks
// (the paper reports a ~15% traffic reduction).
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig7()
		if err != nil {
			b.Fatal(err)
		}
		sum, n := 0.0, 0
		for _, row := range rows {
			if row.Inter {
				sum += float64(row.FlitsRenew) / float64(row.FlitsNoRenew)
				n++
			}
		}
		b.ReportMetric(sum/float64(n), "renewTrafficRatio")
	}
}

// BenchmarkFig8 regenerates the SC stall comparison. Reported metrics:
// RCC's stall cycles and stall resolve latency relative to MESI (gmean,
// inter-wg; the paper reports 0.48x and 0.65x).
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig8()
		if err != nil {
			b.Fatal(err)
		}
		var cyc, lat []float64
		for _, row := range rows {
			if row.Inter {
				cyc = append(cyc, row.StallCycles[config.RCC])
				lat = append(lat, row.StallLatency[config.RCC])
			}
		}
		b.ReportMetric(experiments.GMean(cyc), "rccStallCycVsMESI")
		b.ReportMetric(experiments.GMean(lat), "rccStallLatVsMESI")
	}
}

// BenchmarkFig9 regenerates the headline comparison (speedup, energy,
// traffic). Reported metrics: gmean inter-wg speedups over MESI.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig9()
		if err != nil {
			b.Fatal(err)
		}
		inter, _ := experiments.SpeedupGMeans(rows)
		b.ReportMetric(inter[config.RCC], "rccSpeedupX")
		b.ReportMetric(inter[config.TCS], "tcsSpeedupX")
		b.ReportMetric(inter[config.TCW], "tcwSpeedupX")
	}
}

// BenchmarkFig10 regenerates the weak-ordering comparison. Reported
// metric: gmean RCC-WO speedup over RCC-SC (the paper reports ~1.07x).
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(benchBase())
		rows, err := r.Fig10()
		if err != nil {
			b.Fatal(err)
		}
		var wo []float64
		for _, row := range rows {
			wo = append(wo, row.Speedup[config.RCCWO])
		}
		b.ReportMetric(experiments.GMean(wo), "rccWOSpeedupX")
	}
}

// BenchmarkProtocols runs one representative inter-workgroup benchmark
// (DLB) under every protocol — the per-protocol cost at a glance.
func BenchmarkProtocols(b *testing.B) {
	for _, p := range []rccsim.Protocol{rccsim.MESI, rccsim.TCS, rccsim.TCW, rccsim.RCC, rccsim.RCCWO, rccsim.SCIdeal} {
		b.Run(p.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := benchBase()
				cfg.Protocol = p
				res, err := rccsim.Run(cfg, "DLB")
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Stats.Cycles), "gpuCycles")
				b.ReportMetric(res.Stats.IPC(), "ipc")
			}
		})
	}
}

// BenchmarkSimulatorThroughput measures host-side simulation speed
// (simulated cycles per host second) — the simulator's own performance.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := benchBase()
	cfg.Protocol = rccsim.RCC
	var cycles uint64
	for i := 0; i < b.N; i++ {
		res, err := rccsim.Run(cfg, "KMN")
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Stats.Cycles
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "simCycles/s")
}
