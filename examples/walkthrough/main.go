// Walkthrough: replays the exact instruction sequence of Fig. 3 of the
// paper on the real RCC controllers and prints the evolving logical
// timestamps — core clocks (now), block versions (ver) and lease
// expirations (exp) — after each instruction. The two-core rig is
// internal/scenario's, the one cmd/rcctrace narrates.
//
//	go run ./examples/walkthrough
package main

import (
	"fmt"

	"rccsim/internal/scenario"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
)

func main() {
	// Fig. 3's lease of 10 and its initial state: C0.now=20 (expired
	// copies of A and B), C1.now=0 (valid copies of both); in the L2,
	// A{ver 0, exp 10} and B{ver 30, exp 10} (B was written by a third
	// core at time 30).
	r := scenario.NewRig(10, trace.Observers{})
	op := func(c int, class stats.OpClass, line, val uint64) uint64 {
		req, err := r.Op(c, class, line, val)
		if err != nil {
			panic(err)
		}
		return req.Data
	}
	show := func(step string) {
		a := r.L2.Meta(scenario.LineA)
		b := r.L2.Meta(scenario.LineB)
		fmt.Printf("%-22s C0.now=%-3d C1.now=%-3d | A.ver=%-3d A.exp=%-3d | B.ver=%-3d B.exp=%-3d\n",
			step, r.L1s[0].Clock().Now(), r.L1s[1].Clock().Now(),
			a.Ver, a.Exp, b.Ver, b.Exp)
	}

	fmt.Println("Fig. 3 walkthrough: two cores, addresses A and B, lease = 10")
	fmt.Println()
	show("initial")

	op(0, stats.OpStore, scenario.LineA, 100)
	show("C0: ST A (=100)")

	show(fmt.Sprintf("C0: LD B -> %d", op(0, stats.OpLoad, scenario.LineB, 0)))

	op(1, stats.OpStore, scenario.LineB, 300)
	show("C1: ST B (=300)")

	show(fmt.Sprintf("C1: LD A -> %d", op(1, stats.OpLoad, scenario.LineA, 0)))

	op(0, stats.OpStore, scenario.LineB, 400)
	show("C0: ST B (=400)")

	op(0, stats.OpStore, scenario.LineA, 200)
	show("C0: ST A (=200)")

	show(fmt.Sprintf("C1: LD A -> %d", op(1, stats.OpLoad, scenario.LineA, 0)))

	fmt.Println()
	fmt.Println("The final load hits C1's leased copy and returns the OLD value 100:")
	fmt.Println("C1's logical now (41) has not passed its lease on A (51), so its")
	fmt.Println("read is logically BEFORE C0's second store (ver 52) — execution is")
	fmt.Println("explained by the sequential order:")
	fmt.Println("  C0: ST A, LD B;  C1: ST B, LD A, LD A;  C0: ST B, ST A")
}
