// Flag passing: the data/done synchronization pattern of Sec. II-A of the
// paper, run on the simulated GPU under several protocols.
//
// A producer warp on SM 0 writes data and then sets a done flag; a
// consumer warp on SM 1 reads the flag and then the data. Under a
// sequentially consistent protocol (RCC, TCS, MESI) the consumer can never
// observe done=1 with stale data — with NO fences in the program. The
// run enumerates many timing perturbations, tallies what was observed and
// counts every outcome outside the program's SC outcome set.
//
//	go run ./examples/flagpassing
package main

import (
	"fmt"
	"log"

	"rccsim"
	"rccsim/internal/check"
	"rccsim/internal/workload"
)

// Line 0 holds data, line 1 the done flag.
var mp = &check.Prog{Lines: 2, Threads: []check.Thread{
	{SM: 0, Ops: []check.Op{
		{Kind: workload.OpStore, Lines: []uint64{0}, Val: 42}, // data = 42
		{Kind: workload.OpStore, Lines: []uint64{1}, Val: 1},  // done = 1
	}},
	{SM: 1, Ops: []check.Op{
		{Kind: workload.OpLoad, Lines: []uint64{1}}, // read done
		{Kind: workload.OpLoad, Lines: []uint64{0}}, // read data
	}},
}}

// observer records what the consumer saw: its values in program order and
// their outcome keys. Thread i runs on SM i, and its operation k
// completes at trace pc k+1.
type observer struct {
	vals []uint64
	keys []string
}

func (o *observer) LoadObserved(sm, warp, pc int, line, val uint64) {
	o.vals = append(o.vals, val)
	o.keys = append(o.keys, check.ObsKey(sm, pc-1, line-check.Base, val))
}

// run simulates one timing perturbation and returns the consumer's done
// and data values and the run's outcome key.
func run(p rccsim.Protocol, seed uint64) (done, data uint64, outcome string) {
	cfg := rccsim.SmallConfig()
	cfg.Protocol = p
	cfg.NumSMs = 2
	cfg.WarpsPerSM = 1

	delays := []uint32{uint32(seed % 700), uint32((seed * 37) % 700)}
	prog, err := mp.WorkloadDelays(cfg, delays)
	if err != nil {
		log.Fatal(err)
	}
	obs := &observer{}
	if _, err := rccsim.RunProgram(cfg, prog, obs); err != nil {
		log.Fatal(err)
	}
	return obs.vals[0], obs.vals[1], check.CanonOutcome(obs.keys)
}

func main() {
	allowed, err := mp.Enumerate(check.DefaultEnumLimits())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("flag passing (Sec. II-A): ST data=42; ST done=1 || LD done; LD data")
	fmt.Println("forbidden under SC: done=1 with data=0")
	fmt.Println()
	for _, p := range []rccsim.Protocol{rccsim.RCC, rccsim.TCS, rccsim.MESI} {
		tally := map[string]int{}
		violations := 0
		for seed := uint64(1); seed <= 200; seed++ {
			done, data, outcome := run(p, seed)
			tally[fmt.Sprintf("done=%d,data=%d", done, data)]++
			if !allowed.AllowsOutcome(outcome) {
				violations++
			}
		}
		fmt.Printf("%-5v outcomes over 200 runs: %v  SC violations: %d\n", p, tally, violations)
	}
	fmt.Println()
	fmt.Println("All SC violations are 0: RCC enforces the ordering in logical time,")
	fmt.Println("without fences and without stalling the producer's stores.")
}
