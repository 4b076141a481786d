package sim

import (
	"runtime"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// TestNewAllocBudget pins what building one machine allocates. The model
// checker builds tens of thousands of small machines per program family,
// so construction memory is its throughput: calendar rings and MSHR tables
// must be sized by what is pending, not by latency horizon or capacity.
func TestNewAllocBudget(t *testing.T) {
	const machines = 20
	const budget = 128 << 10 // bytes per machine
	b, _ := workload.ByName("DLB")
	for _, p := range []config.Protocol{config.RCC, config.MESI} {
		cfg := config.Small()
		cfg.Protocol = p
		prog := b.Generate(cfg)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < machines; i++ {
			if _, err := New(cfg, prog, nil); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / machines
		t.Logf("%v: sim.New allocates %d KB per machine", p, per>>10)
		if per > budget {
			t.Errorf("%v: sim.New allocates %d KB per machine, budget %d KB", p, per>>10, budget>>10)
		}
	}
}
