package experiments

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// storeHeavyBench builds a synthetic benchmark dominated by write-through
// stores: each warp warms one private line, then alternates L1-hitting
// loads with stores that must round-trip to the L2 for an ack. Under the
// MESI-WT Fig 1 baseline the mean store latency is therefore a multiple of
// the mean load latency.
func storeHeavyBench() workload.Benchmark {
	return workload.Benchmark{
		Name:  "STORE-HEAVY",
		Desc:  "regression trace: stores round-trip, loads hit L1",
		Inter: true,
		Gen: func(cfg config.Config, _ *timing.RNG) *workload.Program {
			prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
			for sm := range prog.SMs {
				warps := make([]workload.Trace, cfg.WarpsPerSM)
				for w := range warps {
					// Private lines, one for loads and a distinct one for
					// stores: no sharers, and stores never disturb the
					// loaded line, so loads hit L1 after the warm-up miss.
					loadLine := uint64(sm*cfg.WarpsPerSM + w)
					storeLine := loadLine + 1<<20
					tr := workload.Trace{{Op: workload.OpLoad, Lines: []uint64{loadLine}}}
					for i := 0; i < 40; i++ {
						tr = append(tr,
							workload.Instr{Op: workload.OpLoad, Lines: []uint64{loadLine}},
							workload.Instr{Op: workload.OpStore, Lines: []uint64{storeLine}, Val: uint64(i)})
					}
					warps[w] = tr
				}
				prog.SMs[sm] = warps
			}
			return prog
		},
	}
}

// TestFig1LatencyColumnsNotSwapped is the regression test for the Fig 1c
// reporting bug: LoadLat/StoreLat (and the P95 columns) were populated
// from bare 0/1 subscripts with load and store transposed (stats.OpLoad is
// 0, stats.OpStore is 1). On a store-heavy trace the store column must be
// the larger one.
func TestFig1LatencyColumnsNotSwapped(t *testing.T) {
	b := storeHeavyBench()
	cfg := config.Small()
	cfg.Protocol = config.MESI
	mesi, err := sim.RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Protocol = config.SCIdeal
	ideal, err := sim.RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}

	row := fig1Row(b, mesi, ideal)
	st := mesi.Stats
	if row.LoadLat != st.Latency[stats.OpLoad].Mean() {
		t.Errorf("LoadLat %.2f != Latency[OpLoad] mean %.2f", row.LoadLat, st.Latency[stats.OpLoad].Mean())
	}
	if row.StoreLat != st.Latency[stats.OpStore].Mean() {
		t.Errorf("StoreLat %.2f != Latency[OpStore] mean %.2f", row.StoreLat, st.Latency[stats.OpStore].Mean())
	}
	if row.StoreLat <= row.LoadLat {
		t.Fatalf("store-heavy trace: StoreLat %.1f <= LoadLat %.1f — Fig 1c columns swapped",
			row.StoreLat, row.LoadLat)
	}
	if row.StoreP95 < row.LoadP95 {
		t.Fatalf("store-heavy trace: StoreP95 %d < LoadP95 %d — Fig 1c tail columns swapped",
			row.StoreP95, row.LoadP95)
	}
}
