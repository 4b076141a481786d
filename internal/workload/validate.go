package workload

import "fmt"

// Validate checks a program for the structural properties the machine
// relies on:
//
//   - the per-SM warp counts match the configuration's shape (checked by
//     the machine itself against cfg; here we check internal consistency);
//   - every warp of an SM contains the same number of barriers (otherwise
//     barrier release deadlocks);
//   - memory instructions carry at least one line and no more lines than
//     a warp has lanes, and a divergent one's lines lie inside the pool;
//   - compute, local, fence and barrier instructions carry no lines.
//
// It returns a descriptive error for the first violation found.
func (p *Program) Validate(warpWidth int) error {
	if warpWidth <= 0 {
		warpWidth = 32
	}
	pool := uint64(len(p.Pool))
	for sm, warps := range p.SMs {
		barriers := -1
		for w, tr := range warps {
			n := 0
			for i := range tr {
				in := &tr[i]
				switch in.Op {
				case OpLoad, OpStore, OpAtomic:
					if in.N == 0 {
						return fmt.Errorf("workload: SM %d warp %d instr %d: %v with no lines", sm, w, i, in.Op)
					}
					if int(in.N) > warpWidth {
						return fmt.Errorf("workload: SM %d warp %d instr %d: %v touches %d lines (> %d lanes)",
							sm, w, i, in.Op, in.N, warpWidth)
					}
					if in.N > 1 && (in.Line > pool || pool-in.Line < uint64(in.N)) {
						return fmt.Errorf("workload: SM %d warp %d instr %d: %v lines [%d,+%d) past the pool's %d",
							sm, w, i, in.Op, in.Line, in.N, pool)
					}
				case OpCompute, OpLocal, OpFence, OpBarrier:
					if in.N != 0 {
						return fmt.Errorf("workload: SM %d warp %d instr %d: %v carries lines", sm, w, i, in.Op)
					}
					if in.Op == OpBarrier {
						n++
					}
				default:
					return fmt.Errorf("workload: SM %d warp %d instr %d: unknown op %d", sm, w, i, in.Op)
				}
			}
			if len(tr) == 0 {
				continue // empty warps never reach a barrier and never block one
			}
			if barriers == -1 {
				barriers = n
			} else if n != barriers {
				return fmt.Errorf("workload: SM %d: warp %d has %d barriers, others have %d (release would deadlock)",
					sm, w, n, barriers)
			}
		}
	}
	return nil
}
