package sim

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

func TestFullScaleProbe(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale probe")
	}
	for _, b := range workload.All() {
		base := uint64(0)
		for _, p := range []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal} {
			cfg := config.Default()
			cfg.Protocol = p
			res, err := RunBenchmark(cfg, b, trace.Observers{})
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, p, err)
			}
			st := res.Stats
			if p == config.MESI {
				base = st.Cycles
			}
			t.Logf("%s/%-8v: cyc=%8d speedup=%.2f stallFrac=%.2f storeBlame=%.2f ldLat=%.0f stLat=%.0f exp=%.2f renew=%d flits=%d",
				b.Name, p, st.Cycles, float64(base)/float64(st.Cycles),
				st.StalledOpFraction(), st.StoreBlameFraction(),
				st.Latency[stats.OpLoad].Mean(), st.Latency[stats.OpStore].Mean(), st.L1ExpiredFraction(), st.L1Renewed, st.TotalFlits())
		}
	}
}
