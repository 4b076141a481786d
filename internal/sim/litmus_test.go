package sim

import (
	"fmt"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/sc"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// litmusConfig builds a small machine for litmus runs.
func litmusConfig(p config.Protocol) config.Config {
	cfg := config.Small()
	cfg.Protocol = p
	cfg.NumSMs = 4
	cfg.WarpsPerSM = 2
	cfg.L2Partitions = 2
	return cfg
}

// runLitmus executes one litmus under cfg with a timing perturbation seed
// and returns the observed outcome. Each litmus thread runs on its own SM
// (warp 0) to maximize cross-core interleaving; fenced=true inserts a
// FENCE after every operation (for the WO protocols).
func runLitmus(t *testing.T, cfg config.Config, l sc.Litmus, seed uint64, fenced bool) sc.Outcome {
	t.Helper()
	if len(l.Threads) > cfg.NumSMs {
		t.Fatalf("litmus %s needs %d SMs", l.Name, len(l.Threads))
	}
	rng := timing.NewRNG(seed)
	prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
	for i := range prog.SMs {
		prog.SMs[i] = make([]workload.Trace, cfg.WarpsPerSM)
	}
	var placement [][2]int
	const base = 1 << 20 // keep litmus lines clear of anything else
	for tid, ops := range l.Threads {
		tr := workload.Trace{{Op: workload.OpCompute, Lat: uint32(rng.Intn(900) + 1)}}
		body := sc.Trace(ops, base)
		for _, in := range body {
			tr = append(tr, in)
			if fenced {
				tr = append(tr, workload.Instr{Op: workload.OpFence})
			}
		}
		prog.SMs[tid][0] = tr
		placement = append(placement, [2]int{tid, 0})
	}
	rec := sc.NewRecorder(cfg.WarpsPerSM)
	m, err := New(cfg, prog, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Every litmus run doubles as a timestamp-invariant check: lease
	// sanity, L2 version monotonicity, and core clock monotonicity are
	// verified over the live event stream.
	inv := trace.NewInvariantSink(nil)
	m.Attach(trace.Observers{Tr: trace.NewBus(inv)})
	if _, err := m.Run(); err != nil {
		t.Fatalf("%s seed %d: %v", l.Name, seed, err)
	}
	if err := inv.Err(); err != nil {
		t.Fatalf("%s seed %d: %v", l.Name, seed, err)
	}
	return rec.OutcomeFor(placement)
}

// TestLitmusSCProtocols checks that no SC-capable protocol ever produces
// an outcome outside the enumerated SC set, across many perturbations.
func TestLitmusSCProtocols(t *testing.T) {
	protocols := []config.Protocol{config.MESI, config.TCS, config.RCC, config.SCIdeal}
	for _, l := range sc.AllLitmus() {
		allowed := sc.SCOutcomes(l)
		for _, p := range protocols {
			t.Run(fmt.Sprintf("%s/%v", l.Name, p), func(t *testing.T) {
				seen := map[sc.Outcome]int{}
				for seed := uint64(1); seed <= 30; seed++ {
					out := runLitmus(t, litmusConfig(p), l, seed, false)
					if !allowed[out] {
						t.Fatalf("seed %d produced non-SC outcome %q (allowed %v)", seed, out, allowed)
					}
					seen[out]++
				}
				if len(seen) == 0 {
					t.Fatal("no outcomes observed")
				}
			})
		}
	}
}

// TestLitmusWOFenced checks that the weakly ordered protocols with a fence
// after every access also stay within the SC outcome set.
func TestLitmusWOFenced(t *testing.T) {
	for _, l := range sc.AllLitmus() {
		allowed := sc.SCOutcomes(l)
		for _, p := range []config.Protocol{config.TCW, config.RCCWO} {
			t.Run(fmt.Sprintf("%s/%v", l.Name, p), func(t *testing.T) {
				for seed := uint64(1); seed <= 20; seed++ {
					out := runLitmus(t, litmusConfig(p), l, seed, true)
					if !allowed[out] {
						t.Fatalf("seed %d produced non-SC outcome %q under fenced %v", seed, out, p)
					}
				}
			})
		}
	}
}

// TestLitmusOutcomeDiversity makes sure the perturbations actually shake
// out more than one interleaving (otherwise the SC checks prove little).
func TestLitmusOutcomeDiversity(t *testing.T) {
	l := sc.MessagePassing()
	seen := map[sc.Outcome]int{}
	for seed := uint64(1); seed <= 40; seed++ {
		out := runLitmus(t, litmusConfig(config.RCC), l, seed, false)
		seen[out]++
	}
	if len(seen) < 2 {
		t.Fatalf("only outcomes %v observed; perturbation too weak", seen)
	}
}
