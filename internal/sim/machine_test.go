package sim

import (
	"fmt"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/sc"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestAllProtocolsAllBenchmarksSmall is the cross-product smoke test on
// the reduced machine: every run must terminate, drain, and produce
// plausible counters.
func TestAllProtocolsAllBenchmarksSmall(t *testing.T) {
	for _, b := range workload.All() {
		for _, p := range []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal} {
			cfg := config.Small()
			cfg.Protocol = p
			res, err := RunBenchmark(cfg, b, trace.Observers{})
			if err != nil {
				t.Fatalf("%s/%v: %v", b.Name, p, err)
			}
			st := res.Stats
			if st.Cycles == 0 || st.Instructions == 0 {
				t.Fatalf("%s/%v: empty run", b.Name, p)
			}
			if st.MemOps == 0 {
				t.Fatalf("%s/%v: no memory ops", b.Name, p)
			}
			if st.TotalFlits() == 0 {
				t.Fatalf("%s/%v: no interconnect traffic", b.Name, p)
			}
			if p.Consistency() == config.SC && st.FenceStallCycles != 0 {
				t.Fatalf("%s/%v: SC machine recorded fence stalls", b.Name, p)
			}
			if p.Consistency() == config.WO && st.SCStallEvents != 0 {
				t.Fatalf("%s/%v: WO machine recorded SC stalls", b.Name, p)
			}
		}
	}
}

// TestDeterminism: identical configuration and seed must produce
// bit-identical statistics.
func TestDeterminism(t *testing.T) {
	for _, p := range []config.Protocol{config.RCC, config.MESI, config.TCW} {
		cfg := config.Small()
		cfg.Protocol = p
		b, _ := workload.ByName("DLB")
		a1, err := RunBenchmark(cfg, b, trace.Observers{})
		if err != nil {
			t.Fatal(err)
		}
		a2, err := RunBenchmark(cfg, b, trace.Observers{})
		if err != nil {
			t.Fatal(err)
		}
		if *a1.Stats != *a2.Stats {
			t.Fatalf("%v: runs diverged:\n%+v\n%+v", p, a1.Stats, a2.Stats)
		}
	}
}

// TestSeedSensitivity: different seeds must actually change the workload.
func TestSeedSensitivity(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	b, _ := workload.ByName("VPR")
	r1, err := RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	r2, err := RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Stats.Cycles == r2.Stats.Cycles && r1.Stats.TotalFlits() == r2.Stats.TotalFlits() {
		t.Fatal("different seeds produced identical runs")
	}
}

// TestRolloverForced runs RCC with tiny timestamps so rollover must fire,
// and checks the machine completes with correct values afterwards.
func TestRolloverForced(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.RCCTSMax = 12000 // force several rollovers
	cfg.RCCMaxLease = 2048
	cfg.Scale = 0.5
	b, _ := workload.ByName("STN") // store-heavy: advances logical time fast
	res, err := RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rollovers == 0 {
		t.Fatal("no rollover occurred despite tiny timestamp range")
	}
	if res.Stats.RolloverStall == 0 {
		t.Fatal("rollover must cost stall cycles")
	}
}

// TestRolloverPreservesSC runs litmus tests under forced rollovers.
func TestRolloverPreservesSC(t *testing.T) {
	l := sc.MessagePassing()
	allowed := sc.SCOutcomes(l)
	for seed := uint64(1); seed <= 15; seed++ {
		cfg := litmusConfig(config.RCC)
		cfg.RCCTSMax = 9000 // rollover likely mid-test
		out := runLitmus(t, cfg, l, seed, false)
		if !allowed[out] {
			t.Fatalf("seed %d: rollover broke SC: outcome %q", seed, out)
		}
	}
}

// TestValuesReachMemory checks end-to-end value plumbing: a program's
// stores must be recoverable from the final memory image after draining
// (modulo lines still dirty in the L2, which Backing does not see — so we
// force eviction with a tiny L2).
func TestValuesReachMemory(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 1
	cfg.L2SetsPerPart = 1
	cfg.L2Ways = 2
	cfg.L2Partitions = 1

	prog := &workload.Program{}
	var tr workload.Trace
	for i := uint64(0); i < 8; i++ {
		tr = append(tr, prog.Access(workload.OpStore, 100+i, i))
	}
	// Touch more lines to force the early stores out of the tiny L2.
	for i := uint64(100); i < 120; i++ {
		tr = append(tr, prog.Access(workload.OpLoad, 0, i))
	}
	prog.SMs = [][]workload.Trace{{tr}}
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ { // the oldest lines must be written back
		if got := m.Backing().Read(i); got != 100+i && got != 0 {
			t.Fatalf("line %d corrupted: %d", i, got)
		}
	}
	// At least some lines must actually have been written back.
	wrote := 0
	for i := uint64(0); i < 8; i++ {
		if m.Backing().Read(i) == 100+i {
			wrote++
		}
	}
	if wrote == 0 {
		t.Fatal("no dirty lines reached memory")
	}
}

// TestStallBlameClasses checks Fig 1b plumbing end to end: a store-heavy
// SC program must blame stores.
func TestStallBlameClasses(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 2
	prog := &workload.Program{}
	var tr workload.Trace
	for i := 0; i < 20; i++ {
		tr = append(tr, prog.Access(workload.OpStore, 1, uint64(i)))
		tr = append(tr, prog.Access(workload.OpLoad, 0, uint64(i)))
	}
	prog.SMs = [][]workload.Trace{{tr, tr}}
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.SCStallCycles[stats.OpStore] == 0 {
		t.Fatal("no stall cycles blamed on stores")
	}
	if st.StoreBlameFraction() < 0.3 {
		t.Fatalf("store blame fraction = %v, want dominant", st.StoreBlameFraction())
	}
}

// TestMaxCyclesGuard ensures a runaway machine aborts cleanly, with an
// error that says where it was stuck in under 1 KB.
func TestMaxCyclesGuard(t *testing.T) {
	cfg := config.Small()
	cfg.MaxCycles = 100 // far too few to finish
	b, _ := workload.ByName("BH")
	_, err := RunBenchmark(cfg, b, trace.Observers{})
	if err == nil {
		t.Fatal("MaxCycles did not trigger")
	}
	msg := err.Error()
	for _, want := range []string{
		"sim: exceeded MaxCycles=100 (livelock or deadlock?): cycle ",
		", noc in-flight ",
		", l2 [p0 dram ",
		fmt.Sprintf(" p%d dram ", cfg.L2Partitions-1),
		fmt.Sprintf("], %d SMs not done [0 1 ", cfg.NumSMs),
	} {
		if !strings.Contains(msg, want) {
			t.Errorf("error lacks %q:\n%s", want, msg)
		}
	}
	if len(msg) >= 1024 {
		t.Errorf("error is %d bytes, want < 1 KB:\n%s", len(msg), msg)
	}
}

// TestStuckReportNamesOldestBlocked: a MaxCycles abort names, for each
// stuck SM, the warp it has waited on longest with its pc, op and first
// line: a load in flight, a divergent load's first line, and a warp with
// no memory in flight held at a long compute.
func TestStuckReportNamesOldestBlocked(t *testing.T) {
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.MaxCycles = 100 // the DRAM round trip alone takes longer
	prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
	prog.SMs[0] = []workload.Trace{{{Op: workload.OpCompute, Lat: 5}, prog.Access(workload.OpLoad, 0, 0x2a)}}
	prog.SMs[1] = []workload.Trace{nil, {prog.Access(workload.OpLoad, 0, 0x30, 0x31)}}
	prog.SMs[2] = []workload.Trace{nil, nil, {{Op: workload.OpLocal, Lat: 2}, {Op: workload.OpCompute, Lat: 1000}, {Op: workload.OpFence}}}
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("MaxCycles did not trigger")
	}
	want := "3 SMs not done [0 1 2], oldest blocked [sm0 w0 pc 1 LD line 0x2a, sm1 w1 pc 0 LD line 0x30, sm2 w2 pc 2 FENCE]"
	if msg := err.Error(); !strings.HasSuffix(msg, want) {
		t.Errorf("report does not end with\n%s\n%s", want, msg)
	}

	// Every SM of a Table III machine stuck: still under 1 KB.
	cfg = config.Default()
	cfg.MaxCycles = 100
	b, _ := workload.ByName("BH")
	_, err = RunBenchmark(cfg, b, trace.Observers{})
	if err == nil {
		t.Fatal("MaxCycles did not trigger")
	}
	if msg := err.Error(); len(msg) >= 1024 || !strings.Contains(msg, ", oldest blocked [sm0 w") || !strings.HasSuffix(msg, "]") {
		t.Errorf("report is %d bytes or lacks the oldest blocked warps:\n%s", len(msg), msg)
	}
}

// TestNewRejectsMalformedRecords: each record shape the trace encoding can
// hold but Validate rejects comes back from New as an error under every
// protocol, never as a panic or a run.
func TestNewRejectsMalformedRecords(t *testing.T) {
	for _, in := range []workload.Instr{
		{Op: workload.OpLoad},                  // no lines
		{Op: workload.OpStore, Val: 1, N: 33},  // more lines than lanes
		{Op: workload.OpLoad, Line: 9, N: 2},   // offset past the pool
		{Op: workload.OpAtomic, Line: 3, N: 2}, // offset+N past the pool
		{Op: workload.OpCompute, Lat: 1, N: 1}, // lines on compute
		{Op: workload.OpLocal, N: 1},           // lines on local
		{Op: workload.OpFence, N: 2},           // lines on fence
		{Op: workload.OpBarrier, N: 1},         // lines on barrier
	} {
		for _, p := range config.Protocols() {
			cfg := config.Small()
			cfg.Protocol = p
			prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs), Pool: workload.Pool{1, 2, 3, 4}}
			prog.SMs[0] = []workload.Trace{{in}}
			if _, err := New(cfg, prog, nil); err == nil {
				t.Errorf("%v: New accepted %+v", p, in)
			}
		}
	}
}
