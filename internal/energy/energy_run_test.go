package energy_test

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/sim"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestEnergyFromAccountedRun ties the energy model to the cycle account:
// a real run's Result.Energy must equal recomputing Interconnect from its
// stats, and the static term's cycle basis must agree with the accounting
// invariant (Cycles == TotalAccounted / NumSMs), so energy derived from a
// run is consistent with the top-down breakdown of the same run.
func TestEnergyFromAccountedRun(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB missing")
	}
	cfg := config.Small()
	cfg.Protocol = config.RCC
	res, err := sim.RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if got := energy.Interconnect(cfg, st); got != res.Energy {
		t.Fatalf("Result.Energy %+v != Interconnect(stats) %+v", res.Energy, got)
	}
	if st.Cycles*uint64(cfg.NumSMs) != st.TotalAccounted() {
		t.Fatalf("energy cycle basis disagrees with account: Cycles=%d NumSMs=%d accounted=%d",
			st.Cycles, cfg.NumSMs, st.TotalAccounted())
	}

	// The static component is linear in the accounted wall-cycles: a run
	// twice as long (in cycles) must pay exactly twice the static energy.
	doubled := *st
	doubled.Cycles = 2 * st.Cycles
	e1, e2 := energy.Interconnect(cfg, st), energy.Interconnect(cfg, &doubled)
	if e2.Static != 2*e1.Static {
		t.Fatalf("static energy not linear in cycles: %v vs %v", e1.Static, e2.Static)
	}
	if e2.Buffer != e1.Buffer || e2.Switch != e1.Switch || e2.Link != e1.Link {
		t.Fatal("dynamic components should not depend on cycles")
	}
}
