package sim

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestCycleAccountConservation pins the top-down accounting invariant:
// every SM-cycle of a run lands in exactly one category, so the account
// sums to Cycles × NumSMs — no gaps, no double counting — under every
// protocol. DLB is the most mechanism-diverse workload (fences, barriers,
// atomics, cross-SM sharing), so it exercises every attribution path.
func TestCycleAccountConservation(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB missing")
	}
	for _, p := range []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal} {
		cfg := config.Small()
		cfg.Protocol = p
		res, err := RunBenchmark(cfg, b, trace.Observers{})
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		st := res.Stats
		want := st.Cycles * uint64(cfg.NumSMs)
		if got := st.TotalAccounted(); got != want {
			t.Errorf("%v: account sums to %d, want Cycles×SMs = %d×%d = %d (diff %+d)",
				p, got, st.Cycles, cfg.NumSMs, want, int64(got)-int64(want))
		}
		if st.CycleAccount[stats.CatIssued] == 0 {
			t.Errorf("%v: no cycles attributed to issue despite %d instructions",
				p, st.Instructions)
		}
		if st.CycleAccount[stats.CatIssued] != st.Instructions {
			t.Errorf("%v: issued account %d != instructions %d (one issue per cycle per SM)",
				p, st.CycleAccount[stats.CatIssued], st.Instructions)
		}
	}
}

// TestCycleAccountRollover forces frequent timestamp rollovers with a
// narrow timestamp space and requires the freeze/flush phases to show up
// in the account — the attribution the forced re-evaluation wakes exist
// for. Conservation must hold here too (rollover splits sleep intervals).
func TestCycleAccountRollover(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB missing")
	}
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.RCCTSMax = 4 * cfg.RCCMaxLease // narrowest width Validate allows
	res, err := RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if st.Rollovers == 0 {
		t.Fatalf("narrow timestamps produced no rollovers (TSMax=%d)", cfg.RCCTSMax)
	}
	if st.CycleAccount[stats.CatRollover] == 0 {
		t.Errorf("%d rollovers (%d stall cycles) but no cycles attributed to rollover",
			st.Rollovers, st.RolloverStall)
	}
	want := st.Cycles * uint64(cfg.NumSMs)
	if got := st.TotalAccounted(); got != want {
		t.Errorf("account sums to %d, want %d (diff %+d)", got, want, int64(got)-int64(want))
	}
}
