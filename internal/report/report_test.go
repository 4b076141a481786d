package report

import (
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

func runFor(t *testing.T, p config.Protocol) (config.Config, *sim.Result) {
	t.Helper()
	cfg := config.Small()
	cfg.Protocol = p
	b, _ := workload.ByName("DLB")
	res, err := sim.RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	return cfg, &res
}

func TestFormatRCC(t *testing.T) {
	cfg, res := runFor(t, config.RCC)
	out := Format(cfg, res.Stats)
	for _, want := range []string{
		"protocol RCC (SC)", "cycles", "IPC",
		"SC stalls", "latency", "L1:", "L2:", "DRAM:",
		"RCC: renewals", "interconnect traffic", "interconnect energy",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestFormatTCW(t *testing.T) {
	cfg, res := runFor(t, config.TCW)
	out := Format(cfg, res.Stats)
	if !strings.Contains(out, "TC: store stall cycles") {
		t.Errorf("TCW report missing TC section:\n%s", out)
	}
	if !strings.Contains(out, "fences:") {
		t.Errorf("TCW report missing fence stats:\n%s", out)
	}
	if strings.Contains(out, "SC stalls:") {
		t.Errorf("WO run reported SC stalls:\n%s", out)
	}
}

func TestFormatMESI(t *testing.T) {
	cfg, res := runFor(t, config.MESI)
	out := Format(cfg, res.Stats)
	if !strings.Contains(out, "MESI: invalidations") {
		t.Errorf("MESI report missing directory section:\n%s", out)
	}
}

func TestFormatEmptyRun(t *testing.T) {
	cfg := config.Small()
	out := Format(cfg, stats.New())
	if !strings.Contains(out, "cycles 0") {
		t.Errorf("empty report malformed:\n%s", out)
	}
}
