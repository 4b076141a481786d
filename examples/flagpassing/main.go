// Flag passing: the data/done synchronization pattern of Sec. II-A of the
// paper, run on the simulated GPU under several protocols.
//
// A producer warp on SM 0 writes data and then sets a done flag; a
// consumer warp on SM 1 reads the flag and then the data. Under a
// sequentially consistent protocol (RCC, TCS, MESI) the consumer can never
// observe done=1 with stale data — with NO fences in the program. The
// run enumerates many timing perturbations and tallies what was observed.
//
//	go run ./examples/flagpassing
package main

import (
	"fmt"
	"log"

	"rccsim"
	"rccsim/internal/sc"
	"rccsim/internal/workload"
)

const (
	dataLine = 1 << 16
	doneLine = dataLine + 1
)

// observer records what the consumer saw.
type observer struct {
	vals []uint64
}

func (o *observer) LoadObserved(sm, warp, pc int, line, val uint64) {
	o.vals = append(o.vals, val)
}

func run(p rccsim.Protocol, seed uint64) (done, data uint64) {
	cfg := rccsim.SmallConfig()
	cfg.Protocol = p
	cfg.NumSMs = 2
	cfg.WarpsPerSM = 1

	// Access builds each memory instruction's record.
	prog := &workload.Program{}
	producer := workload.Trace{
		{Op: workload.OpCompute, Lat: uint32(seed % 700)},
		prog.Access(workload.OpStore, 42, dataLine),
		prog.Access(workload.OpStore, 1, doneLine),
	}
	consumer := workload.Trace{
		{Op: workload.OpCompute, Lat: uint32((seed * 37) % 700)},
		prog.Access(workload.OpLoad, 0, doneLine),
		prog.Access(workload.OpLoad, 0, dataLine),
	}
	prog.SMs = [][]workload.Trace{{producer}, {consumer}}

	obs := &observer{}
	if _, err := rccsim.RunProgram(cfg, prog, obs); err != nil {
		log.Fatal(err)
	}
	return obs.vals[0], obs.vals[1]
}

func main() {
	fmt.Println("flag passing (Sec. II-A): ST data; ST done=1 || LD done; LD data")
	fmt.Println("forbidden under SC: done=1 with data=0")
	fmt.Println()
	for _, p := range []rccsim.Protocol{rccsim.RCC, rccsim.TCS, rccsim.MESI} {
		tally := map[string]int{}
		violations := 0
		for seed := uint64(1); seed <= 200; seed++ {
			done, data := run(p, seed)
			tally[fmt.Sprintf("done=%d,data=%d", done, data)]++
			if done == 1 && data != 42 {
				violations++
			}
		}
		fmt.Printf("%-5v outcomes over 200 runs: %v  SC violations: %d\n", p, tally, violations)
	}
	fmt.Println()
	fmt.Println("All SC violations are 0: RCC enforces the ordering in logical time,")
	fmt.Println("without fences and without stalling the producer's stores.")

	// The SC checker enumerates the allowed outcome set for reference.
	allowed := sc.SCOutcomes(sc.MessagePassing())
	fmt.Printf("SC-allowed (done,data with unit values): %v\n", allowed)
}
