package rccsim_test

import (
	"net/http"
	"testing"

	"rccsim"
	"rccsim/internal/workload"
)

func TestPublicRun(t *testing.T) {
	cfg := rccsim.SmallConfig()
	cfg.Protocol = rccsim.RCC
	res, err := rccsim.Run(cfg, "BFS")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cycles == 0 || res.Energy.Total() <= 0 {
		t.Fatal("empty result")
	}
}

func TestPublicRunUnknownBenchmark(t *testing.T) {
	if _, err := rccsim.Run(rccsim.SmallConfig(), "NOPE"); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPublicBenchmarks(t *testing.T) {
	if len(rccsim.Benchmarks()) != 12 {
		t.Fatal("benchmark list wrong")
	}
	if _, ok := rccsim.BenchmarkByName("DLB"); !ok {
		t.Fatal("DLB missing")
	}
}

func TestPublicRunProgram(t *testing.T) {
	cfg := rccsim.SmallConfig()
	cfg.Protocol = rccsim.RCC
	prog := &rccsim.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
	for i := range prog.SMs {
		prog.SMs[i] = make([]workload.Trace, cfg.WarpsPerSM)
	}
	prog.SMs[0][0] = workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}, Val: 5},
		{Op: workload.OpLoad, Lines: []uint64{1}},
	}
	st, err := rccsim.RunProgram(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemOps != 2 {
		t.Fatalf("MemOps = %d", st.MemOps)
	}
}

func TestPublicMachineStepping(t *testing.T) {
	cfg := rccsim.SmallConfig()
	cfg.Protocol = rccsim.RCC
	b, _ := rccsim.BenchmarkByName("LUD")
	m, err := rccsim.NewMachine(cfg, b.Generate(cfg), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100 && !m.Done(); i++ {
		m.Step()
	}
	if m.Now() == 0 {
		t.Fatal("machine did not advance")
	}
}

func TestPublicRunner(t *testing.T) {
	r := rccsim.NewRunner(rccsim.SmallConfig())
	rows, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 12 {
		t.Fatalf("Fig10 rows = %d", len(rows))
	}
}

func TestConfigValidationSurface(t *testing.T) {
	cfg := rccsim.SmallConfig()
	cfg.NumSMs = 0
	if _, err := rccsim.Run(cfg, "BFS"); err == nil {
		t.Fatal("invalid config accepted")
	}
}

// TestPublicServeIntrospection: the one facade server mounts /spans only
// for a non-nil recorder.
func TestPublicServeIntrospection(t *testing.T) {
	reg := rccsim.NewMetricsRegistry()
	for _, tc := range []struct {
		sp   *rccsim.SpanRecorder
		want int
	}{
		{nil, http.StatusNotFound},
		{rccsim.NewSpanRecorder(1), http.StatusOK},
	} {
		addr, err := rccsim.ServeIntrospection("127.0.0.1:0", reg, rccsim.NewRunTracker(reg), tc.sp)
		if err != nil {
			t.Fatal(err)
		}
		for path, want := range map[string]int{"/runs": http.StatusOK, "/spans": tc.want} {
			resp, err := http.Get("http://" + addr + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("sp=%v: GET %s = %d, want %d", tc.sp != nil, path, resp.StatusCode, want)
			}
		}
	}
}
