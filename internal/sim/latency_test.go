package sim

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/workload"
)

// measureLoad runs prep, a trace of at most two instructions built in
// prog, as the only warp of an otherwise idle default machine and returns
// the mean load latency.
func measureLoad(t *testing.T, prog *workload.Program, prep workload.Trace) float64 {
	t.Helper()
	cfg := config.Default()
	cfg.Protocol = config.RCC
	prog.SMs = make([][]workload.Trace, cfg.NumSMs)
	for i := range prog.SMs {
		prog.SMs[i] = make([]workload.Trace, cfg.WarpsPerSM)
	}
	prog.SMs[0][0] = prep
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return st.Latency[stats.OpLoad].Mean()
}

// TestL2RoundTripCalibration: an unloaded L2 hit must cost on the order of
// the paper's 340-cycle minimum L2 latency (Table III, [38]).
func TestL2RoundTripCalibration(t *testing.T) {
	// The store write-allocates the line into the L2 (write-no-allocate
	// L1), so the following load is a pure L2 hit.
	prog := &workload.Program{}
	lat := measureLoad(t, prog, workload.Trace{
		prog.Access(workload.OpStore, 1, 7),
		prog.Access(workload.OpLoad, 0, 7),
	})
	if lat < 250 || lat > 450 {
		t.Fatalf("unloaded L2 hit latency = %.0f, want ~340", lat)
	}
}

// TestDRAMRoundTripCalibration: an unloaded DRAM access must cost on the
// order of the paper's 460-cycle minimum DRAM latency (Table III).
func TestDRAMRoundTripCalibration(t *testing.T) {
	prog := &workload.Program{}
	lat := measureLoad(t, prog, workload.Trace{
		prog.Access(workload.OpLoad, 0, 7),
	})
	if lat < 380 || lat > 600 {
		t.Fatalf("unloaded DRAM load latency = %.0f, want ~460", lat)
	}
}

// TestL1HitIsCheap: a repeated load must hit in the L1 at negligible cost.
func TestL1HitIsCheap(t *testing.T) {
	prog := &workload.Program{}
	lat := measureLoad(t, prog, workload.Trace{
		prog.Access(workload.OpLoad, 0, 7),
		prog.Access(workload.OpLoad, 0, 7),
	})
	// Mean over one miss (~460) and one hit (~1): must be well under the
	// miss-only latency.
	if lat > 300 {
		t.Fatalf("L1 hit not cheap: mean latency %.0f", lat)
	}
}
