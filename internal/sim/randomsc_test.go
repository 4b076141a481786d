package sim

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/sc"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// TestRandomProgramsSC generalizes the litmus suite: random small
// concurrent programs (3 threads x 4 ops over 2 lines, unique store
// values) run on the full machine under each SC-capable protocol; the
// observed outcome must be within the exhaustively enumerated SC set.
func TestRandomProgramsSC(t *testing.T) {
	protocols := []config.Protocol{config.RCC, config.TCS, config.MESI}
	for _, p := range protocols {
		t.Run(p.String(), func(t *testing.T) {
			for progSeed := uint64(1); progSeed <= 12; progSeed++ {
				rng := timing.NewRNG(progSeed * 977)
				l := sc.RandomLitmus(rng, 3, 4, 2)
				allowed := sc.SCOutcomes(l)
				for runSeed := uint64(1); runSeed <= 5; runSeed++ {
					out := runLitmus(t, litmusConfig(p), l, runSeed*31+progSeed, false)
					if !allowed[out] {
						t.Fatalf("program %d run %d: non-SC outcome %q\nprogram: %+v\nallowed: %v",
							progSeed, runSeed, out, l.Threads, allowed)
					}
				}
			}
		})
	}
}

// TestRandomProgramsFencedWO does the same for the weakly ordered
// protocols with conservative fencing.
func TestRandomProgramsFencedWO(t *testing.T) {
	for _, p := range []config.Protocol{config.TCW, config.RCCWO} {
		t.Run(p.String(), func(t *testing.T) {
			for progSeed := uint64(1); progSeed <= 8; progSeed++ {
				rng := timing.NewRNG(progSeed * 1693)
				l := sc.RandomLitmus(rng, 3, 3, 2)
				allowed := sc.SCOutcomes(l)
				for runSeed := uint64(1); runSeed <= 4; runSeed++ {
					out := runLitmus(t, litmusConfig(p), l, runSeed*17+progSeed, true)
					if !allowed[out] {
						t.Fatalf("program %d run %d: fenced %v produced non-SC outcome %q",
							progSeed, runSeed, p, out)
					}
				}
			}
		})
	}
}

// runWarmedMP runs message passing where the consumer has pre-warmed a
// leased copy of the data line and dawdles before polling the flag:
//
//	producer:            consumer:
//	                     LD data        (warm: leases data=0)
//	ST data = 1          <long compute>
//	[FENCE]              LD done
//	ST done = 1          LD data
//
// Under any SC protocol, seeing done=1 implies the final data load returns
// 1. Under unfenced TC-Weak the consumer can hit its stale leased copy and
// observe done=1, data=0 — the write-atomicity violation of Table I. The
// producer's fence restores correctness by waiting out the data lease
// (GWCT) before publishing the flag.
func runWarmedMP(t *testing.T, p config.Protocol, seed uint64, fenced bool) (done, data uint64) {
	t.Helper()
	cfg := litmusConfig(p)
	cfg.TCLease = 5000 // long physical leases so the stale window is wide
	const base = 1 << 20
	prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
	producer := workload.Trace{
		{Op: workload.OpCompute, Lat: uint32(400 + seed%100)},
		prog.Access(workload.OpStore, 1, base), // data
	}
	if fenced {
		producer = append(producer, workload.Instr{Op: workload.OpFence})
	}
	producer = append(producer, prog.Access(workload.OpStore, 1, base+1)) // done
	consumer := workload.Trace{
		prog.Access(workload.OpLoad, 0, base), // warm data
		{Op: workload.OpCompute, Lat: uint32(1500 + seed)},
		prog.Access(workload.OpLoad, 0, base+1), // poll done
		prog.Access(workload.OpLoad, 0, base),   // read data
	}
	for i := range prog.SMs {
		prog.SMs[i] = make([]workload.Trace, cfg.WarpsPerSM)
	}
	prog.SMs[0][0] = producer
	prog.SMs[1][0] = consumer
	// Under WO the loads may complete out of program order (the stale
	// L1 hit returns before the flag load), so record values by pc.
	rec := &byPCObserver{vals: map[int]uint64{}}
	m, err := New(cfg, prog, rec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	return rec.vals[2], rec.vals[3] // consumer pc2 = done, pc3 = data
}

type byPCObserver struct {
	vals map[int]uint64
}

func (o *byPCObserver) LoadObserved(sm, warp, pc int, line, val uint64) {
	if sm == 1 {
		o.vals[pc] = val
	}
}

// TestTCWExhibitsWeakBehaviour demonstrates why TCW cannot support SC.
func TestTCWExhibitsWeakBehaviour(t *testing.T) {
	seenViolation := false
	for seed := uint64(1); seed <= 40 && !seenViolation; seed++ {
		done, data := runWarmedMP(t, config.TCW, seed, false)
		if done == 1 && data == 0 {
			seenViolation = true
		}
	}
	if !seenViolation {
		t.Fatal("TCW never produced done=1,data=0; weak ordering not exercised")
	}
	// The producer-side fence (GWCT wait) restores the ordering.
	for seed := uint64(1); seed <= 20; seed++ {
		done, data := runWarmedMP(t, config.TCW, seed, true)
		if done == 1 && data == 0 {
			t.Fatalf("fenced TCW violated message passing (seed %d)", seed)
		}
	}
	// The SC-capable protocols never violate it, with NO fences at all.
	for _, p := range []config.Protocol{config.RCC, config.TCS, config.MESI} {
		for seed := uint64(1); seed <= 20; seed++ {
			done, data := runWarmedMP(t, p, seed, false)
			if done == 1 && data == 0 {
				t.Fatalf("%v violated message passing (seed %d)", p, seed)
			}
		}
	}
}

// TestRCCSCNeverWeak is the flip side: RCC under SC issue rules never
// produces the forbidden SB outcome even without fences.
func TestRCCSCNeverWeak(t *testing.T) {
	l := sc.StoreBuffering()
	for seed := uint64(1); seed <= 60; seed++ {
		out := runLitmus(t, litmusConfig(config.RCC), l, seed, false)
		if out == "0,0" {
			t.Fatalf("RCC produced the forbidden SB outcome (seed %d)", seed)
		}
	}
}
