// Walkthrough: replays the exact instruction sequence of Fig. 3 of the
// paper on the real RCC controllers and prints the evolving logical
// timestamps — core clocks (now), block versions (ver) and lease
// expirations (exp) — after each instruction.
//
//	go run ./examples/walkthrough
package main

import (
	"fmt"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

const (
	lineA = uint64(0)
	lineB = uint64(1)
)

// rig wires two RCC L1s to a single L2 partition with direct delivery.
type rig struct {
	cfg     config.Config
	st      *stats.Run
	l1s     []*core.L1
	l2      *core.L2
	backing *mem.Backing
	now     timing.Cycle
	done    map[uint64]*coherence.Request
	nextID  uint64
}

func (r *rig) Send(m *coherence.Msg, now timing.Cycle) {
	if m.Dst < r.cfg.NumSMs {
		r.l1s[m.Dst].Deliver(m, now)
	} else {
		r.l2.Deliver(m, now)
	}
}

func (r *rig) MemDone(req *coherence.Request, now timing.Cycle) { r.done[req.ID] = req }

func (r *rig) pump() {
	for i := 0; i < 100000; i++ {
		did := r.l2.Tick(r.now)
		for _, l1 := range r.l1s {
			if l1.Tick(r.now) {
				did = true
			}
		}
		drained := r.l2.Drained()
		for _, l1 := range r.l1s {
			drained = drained && l1.Drained()
		}
		if drained && !did {
			return
		}
		r.now++
	}
	panic("walkthrough did not drain")
}

func (r *rig) op(c int, class stats.OpClass, line, val uint64) *coherence.Request {
	r.nextID++
	req := &coherence.Request{ID: r.nextID, Class: class, Line: line, Val: val}
	if !r.l1s[c].Access(req, r.now) {
		panic("access rejected")
	}
	r.pump()
	return req
}

func main() {
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.RCCPredictor = false
	cfg.RCCFixedLease = 10 // the lease duration Fig. 3 assumes
	cfg.RCCLivelockTick = 0

	r := &rig{cfg: cfg, st: stats.New(), done: map[uint64]*coherence.Request{}}
	r.backing = mem.NewBacking()
	dram := mem.NewDRAM(cfg, r.st)
	r.l2 = core.NewL2(cfg, 0, r, r.st, dram, r.backing, nil)
	for i := 0; i < 2; i++ {
		l1 := core.NewL1(cfg, i, r, r.st, core.NewClock(false))
		l1.SetSink(r)
		r.l1s = append(r.l1s, l1)
	}

	// Fig. 3 initial state: C0.now=20 (expired copies of A and B),
	// C1.now=0 (valid copies of both); in the L2, A{ver 0, exp 10} and
	// B{ver 30, exp 10} (B was written by a third core at time 30).
	r.backing.Write(lineA, 7)
	r.backing.Write(lineB, 9)
	r.l2.Seed(lineA, 0, 10, 7)
	r.l2.Seed(lineB, 30, 10, 9)
	r.l1s[0].Seed(lineA, 10, 7)
	r.l1s[0].Seed(lineB, 10, 9)
	r.l1s[1].Seed(lineA, 10, 7)
	r.l1s[1].Seed(lineB, 10, 9)
	r.l1s[0].Clock().AdvanceRead(20)

	show := func(step string) {
		a := r.l2.Meta(lineA)
		b := r.l2.Meta(lineB)
		fmt.Printf("%-22s C0.now=%-3d C1.now=%-3d | A.ver=%-3d A.exp=%-3d | B.ver=%-3d B.exp=%-3d\n",
			step, r.l1s[0].Clock().Now(), r.l1s[1].Clock().Now(),
			a.Ver, a.Exp, b.Ver, b.Exp)
	}

	fmt.Println("Fig. 3 walkthrough: two cores, addresses A and B, lease = 10")
	fmt.Println()
	show("initial")

	r.op(0, stats.OpStore, lineA, 100)
	show("C0: ST A (=100)")

	ld := r.op(0, stats.OpLoad, lineB, 0)
	show(fmt.Sprintf("C0: LD B -> %d", ld.Data))

	r.op(1, stats.OpStore, lineB, 300)
	show("C1: ST B (=300)")

	ld = r.op(1, stats.OpLoad, lineA, 0)
	show(fmt.Sprintf("C1: LD A -> %d", ld.Data))

	r.op(0, stats.OpStore, lineB, 400)
	show("C0: ST B (=400)")

	r.op(0, stats.OpStore, lineA, 200)
	show("C0: ST A (=200)")

	ld = r.op(1, stats.OpLoad, lineA, 0)
	show(fmt.Sprintf("C1: LD A -> %d", ld.Data))

	fmt.Println()
	fmt.Println("The final load hits C1's leased copy and returns the OLD value 100:")
	fmt.Println("C1's logical now (41) has not passed its lease on A (51), so its")
	fmt.Println("read is logically BEFORE C0's second store (ver 52) — execution is")
	fmt.Println("explained by the sequential order:")
	fmt.Println("  C0: ST A, LD B;  C1: ST B, LD A, LD A;  C0: ST B, ST A")
}
