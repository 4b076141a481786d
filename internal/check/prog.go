// Package check is the differential fuzzing subsystem: it generates
// random well-formed concurrent programs (generalizing the sc litmus
// machinery with atomics, fences, barriers, memory-divergent accesses and
// cross-SM warp placement), runs each program on the full machine under
// every SC-claiming protocol with the trace invariant checker armed and
// seeded issue delays and NoC delays widening the explored interleavings,
// and validates three oracles against an exact enumeration of the
// program's sequentially consistent executions:
//
//  1. every observed load (and atomic) outcome lies inside the enumerated
//     SC outcome set;
//  2. the final memory image is one SC allows *for that outcome* — which
//     degenerates to cross-protocol equality whenever SC admits a unique
//     final image;
//  3. the run terminates (no protocol deadlock or livelock) with every
//     runtime timestamp invariant intact.
//
// On a failure the harness delta-debugs the program to a minimal
// reproducer (dropping warps, then operations, then divergent lines) and
// serializes it as replayable JSON; cmd/rccfuzz drives seed ranges and
// replays repros.
//
// Both checkers perturb NoC timing through the one hook the machine has,
// sim.Machine.SetNoCDelayChooser: the fuzzer draws each message's delay
// from a seeded stream, the model checker (ModelCheck) enumerates it. Both
// run a program under a protocol on one machine, reset between runs, and
// judge every finished run with the same verdict (runner.judge).
package check

import (
	"encoding/json"
	"fmt"
	"slices"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// Base offsets the program's shared lines into the machine's address
// space, clear of anything a benchmark generator would touch.
const Base = 1 << 20

// placeCap bounds SM and warp indices and lineCap the line count of a
// well-formed program. Both sit far above the generator's 3x3 grid and
// 3 lines, the litmus shapes and the model checker's families; they keep
// a hand-edited repro from sizing a machine or a memory image the host
// cannot allocate.
const (
	placeCap = 64
	lineCap  = 64
)

// opCap bounds a thread's operations: the SC enumerator keeps each
// thread's pc in one byte of its state.
const opCap = 255

// Op is one operation of a fuzzed thread. Kind is restricted to OpLoad,
// OpStore, OpAtomic, OpFence, OpBarrier and OpCompute; loads and stores
// may carry several distinct lines (memory divergence), atomics exactly
// one. Values are unique per store/atomic, so an execution's outcome is
// fully determined by the values its loads observe.
type Op struct {
	Kind  workload.OpKind
	Lines []uint64 // line indices in [0, Prog.Lines)
	Val   uint64   // store value / atomic addend
	Lat   uint32   // compute latency
}

// Thread is one warp of the fuzzed program, pinned to a (SM, warp) slot.
// Placement is semantic: threads on the same SM share an L1 and a
// threadblock barrier; threads on different SMs only communicate through
// the L2 ordering points.
type Thread struct {
	SM   int  `json:"sm"`
	Warp int  `json:"warp"`
	Ops  []Op `json:"ops"`
}

// Prog is a complete fuzzed concurrent program.
type Prog struct {
	Lines   int      `json:"lines"` // distinct shared lines Base..Base+Lines-1
	Threads []Thread `json:"threads"`
}

// opJSON is the serialized form of Op: mnemonic kind, compact fields.
type opJSON struct {
	Op    string   `json:"op"`
	Lines []uint64 `json:"lines,omitempty"`
	Val   uint64   `json:"val,omitempty"`
	Lat   uint32   `json:"lat,omitempty"`
}

// MarshalJSON writes the op with its mnemonic kind ("LD", "ST", "ATOM",
// "FENCE", "BAR", "COMPUTE").
func (o Op) MarshalJSON() ([]byte, error) {
	return json.Marshal(opJSON{Op: o.Kind.String(), Lines: o.Lines, Val: o.Val, Lat: o.Lat})
}

// UnmarshalJSON parses the mnemonic form.
func (o *Op) UnmarshalJSON(data []byte) error {
	var j opJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	kind, err := parseOpKind(j.Op)
	if err != nil {
		return err
	}
	*o = Op{Kind: kind, Lines: j.Lines, Val: j.Val, Lat: j.Lat}
	return nil
}

func parseOpKind(s string) (workload.OpKind, error) {
	for _, k := range []workload.OpKind{
		workload.OpCompute, workload.OpLocal, workload.OpLoad,
		workload.OpStore, workload.OpAtomic, workload.OpFence, workload.OpBarrier,
	} {
		if s == k.String() {
			return k, nil
		}
	}
	return 0, fmt.Errorf("check: unknown op kind %q", s)
}

// WellFormed verifies the structural properties the enumerator and the
// machine rely on and returns a descriptive error for the first violation:
//
//   - at least one thread, each with 1..opCap ops;
//   - 1..lineCap lines;
//   - (SM, warp) placement unique, each index in [0, placeCap);
//   - every line index in [0, Lines), distinct within one instruction;
//   - loads/stores carry 1..4 lines, atomics exactly 1;
//   - store/atomic values unique and non-zero (memory starts at zero, so
//     a zero store would alias the initial value);
//   - per SM, every thread has the same number of barriers, barrier
//     ordinals are release-aligned by construction, and no thread's trace
//     ends on a barrier (a done warp is excluded from the release count,
//     which would decouple the machine from the enumerator's model);
//   - fences, barriers and computes carry no lines.
func (p *Prog) WellFormed() error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("check: program has no threads")
	}
	if p.Lines <= 0 || p.Lines > lineCap {
		return fmt.Errorf("check: program declares %d lines, want 1..%d", p.Lines, lineCap)
	}
	var (
		placed   [placeCap]uint64 // SM -> bitset of its occupied warps
		barriers [placeCap]int    // SM -> barrier count + 1, 0 before its first thread
		vals     valueSet
	)
	for ti, th := range p.Threads {
		if th.SM < 0 || th.Warp < 0 || th.SM >= placeCap || th.Warp >= placeCap {
			return fmt.Errorf("check: thread %d placement (%d,%d) outside [0,%d)", ti, th.SM, th.Warp, placeCap)
		}
		if placed[th.SM]&(1<<th.Warp) != 0 {
			return fmt.Errorf("check: threads share placement SM %d warp %d", th.SM, th.Warp)
		}
		placed[th.SM] |= 1 << th.Warp
		if len(th.Ops) == 0 {
			return fmt.Errorf("check: thread %d is empty", ti)
		}
		if len(th.Ops) > opCap {
			return fmt.Errorf("check: thread %d has %d ops, at most %d", ti, len(th.Ops), opCap)
		}
		nbar := 0
		for oi, op := range th.Ops {
			switch op.Kind {
			case workload.OpLoad, workload.OpStore, workload.OpAtomic:
				if len(op.Lines) == 0 {
					return fmt.Errorf("check: thread %d op %d: %v with no lines", ti, oi, op.Kind)
				}
				if len(op.Lines) > 4 {
					return fmt.Errorf("check: thread %d op %d: %d lines exceeds divergence cap", ti, oi, len(op.Lines))
				}
				if op.Kind == workload.OpAtomic && len(op.Lines) != 1 {
					return fmt.Errorf("check: thread %d op %d: atomic with %d lines", ti, oi, len(op.Lines))
				}
				var seen uint64 // lines < p.Lines <= lineCap = 64
				for _, l := range op.Lines {
					if l >= uint64(p.Lines) {
						return fmt.Errorf("check: thread %d op %d: line %d out of range [0,%d)", ti, oi, l, p.Lines)
					}
					if seen&(1<<l) != 0 {
						return fmt.Errorf("check: thread %d op %d: duplicate line %d", ti, oi, l)
					}
					seen |= 1 << l
				}
				if op.Kind != workload.OpLoad {
					if op.Val == 0 {
						return fmt.Errorf("check: thread %d op %d: zero store value", ti, oi)
					}
					if !vals.add(op.Val) {
						return fmt.Errorf("check: thread %d op %d: duplicate store value %d", ti, oi, op.Val)
					}
				}
			case workload.OpFence, workload.OpCompute:
				if len(op.Lines) != 0 {
					return fmt.Errorf("check: thread %d op %d: %v carries lines", ti, oi, op.Kind)
				}
			case workload.OpBarrier:
				if len(op.Lines) != 0 {
					return fmt.Errorf("check: thread %d op %d: %v carries lines", ti, oi, op.Kind)
				}
				nbar++
				if oi == len(th.Ops)-1 {
					return fmt.Errorf("check: thread %d ends on a barrier", ti)
				}
			default:
				return fmt.Errorf("check: thread %d op %d: unsupported kind %v", ti, oi, op.Kind)
			}
		}
		if prev := barriers[th.SM] - 1; prev >= 0 && prev != nbar {
			return fmt.Errorf("check: SM %d threads disagree on barrier count (%d vs %d)", th.SM, prev, nbar)
		}
		barriers[th.SM] = nbar + 1
	}
	return nil
}

// valueSet is the set of store values WellFormed has seen: the first 64
// in an array on the caller's stack, any past them in a map, so only a
// program with more than 64 stores allocates.
type valueSet struct {
	vals  [64]uint64
	n     int
	spill map[uint64]bool
}

// add inserts v and reports whether it was absent.
func (s *valueSet) add(v uint64) bool {
	if slices.Contains(s.vals[:s.n], v) || s.spill[v] {
		return false
	}
	if s.n < len(s.vals) {
		s.vals[s.n] = v
		s.n++
		return true
	}
	if s.spill == nil {
		s.spill = make(map[uint64]bool)
	}
	s.spill[v] = true
	return true
}

// Shape returns the number of threads and total operations (shrink-quality
// reporting).
func (p *Prog) Shape() (threads, ops int) {
	for _, th := range p.Threads {
		ops += len(th.Ops)
	}
	return len(p.Threads), ops
}

// Clone deep-copies the program (the shrinker mutates candidates freely).
func (p *Prog) Clone() *Prog {
	q := &Prog{Lines: p.Lines, Threads: make([]Thread, len(p.Threads))}
	for i, th := range p.Threads {
		ops := make([]Op, len(th.Ops))
		for j, op := range th.Ops {
			ops[j] = Op{Kind: op.Kind, Lines: append([]uint64(nil), op.Lines...), Val: op.Val, Lat: op.Lat}
		}
		q.Threads[i] = Thread{SM: th.SM, Warp: th.Warp, Ops: ops}
	}
	return q
}

// String renders the program compactly for failure reports.
func (p *Prog) String() string {
	out := fmt.Sprintf("%d lines\n", p.Lines)
	for ti, th := range p.Threads {
		out += fmt.Sprintf("  T%d @ SM%d/W%d:", ti, th.SM, th.Warp)
		for _, op := range th.Ops {
			switch op.Kind {
			case workload.OpLoad:
				out += fmt.Sprintf(" LD%v", op.Lines)
			case workload.OpStore:
				out += fmt.Sprintf(" ST%v=%d", op.Lines, op.Val)
			case workload.OpAtomic:
				out += fmt.Sprintf(" ATOM%v+=%d", op.Lines, op.Val)
			case workload.OpFence:
				out += " FENCE"
			case workload.OpBarrier:
				out += " BAR"
			case workload.OpCompute:
				out += fmt.Sprintf(" C%d", op.Lat)
			}
		}
		out += "\n"
	}
	return out
}

// MachineShape returns the smallest (NumSMs, WarpsPerSM) the placement
// needs, floored at 2x2 so even single-thread shrunken repros keep a
// multi-SM machine.
func (p *Prog) MachineShape() (numSMs, warpsPerSM int) {
	numSMs, warpsPerSM = 2, 2
	for _, th := range p.Threads {
		if th.SM+1 > numSMs {
			numSMs = th.SM + 1
		}
		if th.Warp+1 > warpsPerSM {
			warpsPerSM = th.Warp + 1
		}
	}
	return numSMs, warpsPerSM
}

// WorkloadDelays materializes the program for cfg: each thread becomes
// the warp trace at its placement, prefixed with a compute delay of
// delays[ti] cycles (minimum 1) for program thread ti. The delays set the
// relative issue offsets of the threads: the fuzzer draws them from a run
// seed, the model checker enumerates them. Operation i of a thread lands
// at trace pc i+1, which is how the outcome recorder keys observations
// back to program positions.
func (p *Prog) WorkloadDelays(cfg config.Config, delays []uint32) (*workload.Program, error) {
	if len(delays) != len(p.Threads) {
		return nil, fmt.Errorf("check: %d delays for %d threads", len(delays), len(p.Threads))
	}
	prog := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
	for i := range prog.SMs {
		prog.SMs[i] = make([]workload.Trace, cfg.WarpsPerSM)
	}
	var buf [4]uint64 // Access copies the lines: the divergence cap fits on the stack
	lines := buf[:0]
	for ti, th := range p.Threads {
		if th.SM >= cfg.NumSMs || th.Warp >= cfg.WarpsPerSM {
			return nil, fmt.Errorf("check: thread %d placed at SM %d warp %d, machine is %dx%d",
				ti, th.SM, th.Warp, cfg.NumSMs, cfg.WarpsPerSM)
		}
		tr := workload.Trace{{Op: workload.OpCompute, Lat: max(delays[ti], 1)}}
		for oi, op := range th.Ops {
			if len(op.Lines) > workload.MaxLines {
				return nil, fmt.Errorf("check: thread %d op %d: %d lines exceeds %d", ti, oi, len(op.Lines), workload.MaxLines)
			}
			lines = lines[:0]
			for _, l := range op.Lines {
				lines = append(lines, Base+l)
			}
			in := prog.Access(op.Kind, op.Val, lines...)
			in.Lat = op.Lat
			if op.Kind == workload.OpCompute && in.Lat == 0 {
				in.Lat = 1
			}
			tr = append(tr, in)
		}
		prog.SMs[th.SM][th.Warp] = tr
	}
	return prog, nil
}
