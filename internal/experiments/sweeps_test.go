package experiments

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

func sweepBench(t *testing.T) (config.Config, workload.Benchmark) {
	t.Helper()
	b, ok := workload.ByName("STN")
	if !ok {
		t.Fatal("STN missing")
	}
	return config.Small(), b
}

func TestWarpSweep(t *testing.T) {
	cfg, b := sweepBench(t)
	rows, err := NewRunnerJobs(cfg, 2).WarpSweep(b, []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// More warps must not reduce IPC: TLP covers SC stalls.
	if rows[1].IPC < rows[0].IPC {
		t.Errorf("IPC fell with more warps: %v -> %v", rows[0].IPC, rows[1].IPC)
	}
}

func TestTCLeaseSweep(t *testing.T) {
	cfg, b := sweepBench(t)
	rows, err := NewRunnerJobs(cfg, 2).TCLeaseSweep(b, []uint64{100, 1600})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The TCS dilemma: longer leases stall stores more.
	if rows[1].StoreStalls < rows[0].StoreStalls {
		t.Errorf("longer TC lease stalled less: %d vs %d", rows[1].StoreStalls, rows[0].StoreStalls)
	}
	// ...and must not make the L1 hit rate worse.
	if rows[1].L1HitRate < rows[0].L1HitRate-0.01 {
		t.Errorf("longer TC lease lowered hit rate: %v vs %v", rows[1].L1HitRate, rows[0].L1HitRate)
	}
}

func TestTSBitsSweep(t *testing.T) {
	cfg, b := sweepBench(t)
	cfg.Scale = 0.5
	cfg.RCCMaxLease = 2047 // so a 13-bit width is (just) legal
	rows, err := NewRunnerJobs(cfg, 2).TSBitsSweep(b, []uint{12, 13, 32})
	if err != nil {
		t.Fatal(err)
	}
	// 12 bits is below 4*MaxLease and must be skipped.
	if len(rows) != 2 {
		t.Fatalf("rows = %d, want 2 (12-bit skipped)", len(rows))
	}
	if rows[0].Bits != 13 || rows[1].Bits != 32 {
		t.Fatalf("unexpected widths: %+v", rows)
	}
	// Narrow timestamps must roll over; wide ones must not.
	if rows[0].Rollovers == 0 {
		t.Error("13-bit timestamps never rolled over")
	}
	if rows[1].Rollovers != 0 {
		t.Error("32-bit timestamps rolled over in a tiny run")
	}
	// Rollover costs stall cycles. (Total cycle counts of two runs this
	// small differ by scheduling noise larger than the rollover cost, so
	// compare the direct stall counter, not end-to-end cycles.)
	if rows[0].Stall == 0 {
		t.Error("13-bit rollovers stalled nothing")
	}
	if rows[1].Stall != 0 {
		t.Errorf("32-bit run reported %d rollover stall cycles", rows[1].Stall)
	}
}

func TestSchedulerSweep(t *testing.T) {
	cfg, b := sweepBench(t)
	rows, err := NewRunnerJobs(cfg, 2).SchedulerSweep(b, []config.Protocol{config.RCC, config.MESI})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Cycles == 0 {
			t.Fatalf("%v/%v: empty run", r.Scheduler, r.Protocol)
		}
	}
}
