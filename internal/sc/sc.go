// Package sc provides the sequential-consistency checking machinery used
// by the test suite: small litmus programs (message passing, store
// buffering, coherence), an enumerator of their SC-allowed outcomes, and
// an observer that records the values loads return during a simulation so
// executions can be validated against the allowed set.
//
// Values are unique per store, so an execution's outcome is fully
// determined by the tuple of values the litmus loads observed.
package sc

import (
	"fmt"
	"sort"
	"strings"

	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// LitmusOp is one operation of a litmus thread.
type LitmusOp struct {
	Store bool
	Line  uint64
	Val   uint64 // stored value (Store) — loads record what they see
}

// Litmus is a named litmus test: a handful of threads, each a short
// straight-line sequence of loads and stores, plus the set of outcomes
// sequential consistency permits.
type Litmus struct {
	Name    string
	Threads [][]LitmusOp
}

// MessagePassing is the data/done pattern of Sec. II-A: SC forbids
// observing done=1 with data=0.
func MessagePassing() Litmus {
	return Litmus{
		Name: "message-passing",
		Threads: [][]LitmusOp{
			{ // producer
				{Store: true, Line: 0, Val: 1}, // data = 1
				{Store: true, Line: 1, Val: 1}, // done = 1
			},
			{ // consumer
				{Line: 1}, // read done
				{Line: 0}, // read data
			},
		},
	}
}

// StoreBuffering is the classic SB test: SC forbids both threads reading 0.
func StoreBuffering() Litmus {
	return Litmus{
		Name: "store-buffering",
		Threads: [][]LitmusOp{
			{
				{Store: true, Line: 0, Val: 1},
				{Line: 1},
			},
			{
				{Store: true, Line: 1, Val: 1},
				{Line: 0},
			},
		},
	}
}

// LoadBuffering is LB: SC forbids both loads observing the other thread's
// (program-order later) store.
func LoadBuffering() Litmus {
	return Litmus{
		Name: "load-buffering",
		Threads: [][]LitmusOp{
			{
				{Line: 0},
				{Store: true, Line: 1, Val: 1},
			},
			{
				{Line: 1},
				{Store: true, Line: 0, Val: 1},
			},
		},
	}
}

// CoRR checks per-location coherence: two reads of the same location by
// one thread must not observe a newer value and then an older one.
func CoRR() Litmus {
	return Litmus{
		Name: "coherence-rr",
		Threads: [][]LitmusOp{
			{
				{Store: true, Line: 0, Val: 1},
			},
			{
				{Line: 0},
				{Line: 0},
			},
		},
	}
}

// IRIW is independent-reads-independent-writes: under SC, the two reader
// threads must not observe the two writes in opposite orders.
func IRIW() Litmus {
	return Litmus{
		Name: "iriw",
		Threads: [][]LitmusOp{
			{{Store: true, Line: 0, Val: 1}},
			{{Store: true, Line: 1, Val: 1}},
			{{Line: 0}, {Line: 1}},
			{{Line: 1}, {Line: 0}},
		},
	}
}

// WRC is write-to-read causality: T0 writes X; T1 sees it and writes Y;
// T2 sees Y but must then also see X under SC.
func WRC() Litmus {
	return Litmus{
		Name: "wrc",
		Threads: [][]LitmusOp{
			{{Store: true, Line: 0, Val: 1}},
			{
				{Line: 0},                      // r1 = X
				{Store: true, Line: 1, Val: 1}, // Y = 1
			},
			{
				{Line: 1}, // r2 = Y
				{Line: 0}, // r3 = X
			},
		},
	}
}

// TwoPlusTwoW is 2+2W: both threads write both locations in opposite
// orders; SC forbids each location ending with the first thread's first
// write... observed through trailing reads by each writer.
func TwoPlusTwoW() Litmus {
	return Litmus{
		Name: "2+2w",
		Threads: [][]LitmusOp{
			{
				{Store: true, Line: 0, Val: 1},
				{Store: true, Line: 1, Val: 2},
				{Line: 0},
			},
			{
				{Store: true, Line: 1, Val: 3},
				{Store: true, Line: 0, Val: 4},
				{Line: 1},
			},
		},
	}
}

// CoWR is per-location write-read coherence: a thread reading its own
// write must not see an older value unless another write intervened.
func CoWR() Litmus {
	return Litmus{
		Name: "coherence-wr",
		Threads: [][]LitmusOp{
			{
				{Store: true, Line: 0, Val: 1},
				{Line: 0},
			},
			{
				{Store: true, Line: 0, Val: 2},
			},
		},
	}
}

// AllLitmus returns every litmus test.
func AllLitmus() []Litmus {
	return []Litmus{
		MessagePassing(), StoreBuffering(), LoadBuffering(),
		CoRR(), CoWR(), IRIW(), WRC(), TwoPlusTwoW(),
	}
}

// Outcome is the concatenated observed load values in (thread, program
// order) position order, e.g. "1,0".
type Outcome string

// loadSlots assigns each load of the litmus a stable outcome position
// (thread-major, program order within a thread).
func loadSlots(l Litmus) map[[2]int]int {
	slots := make(map[[2]int]int)
	n := 0
	for tid, ops := range l.Threads {
		for i, op := range ops {
			if !op.Store {
				slots[[2]int{tid, i}] = n
				n++
			}
		}
	}
	return slots
}

// enumState is one node of the interleaving enumeration.
type enumState struct {
	pc  []int
	mem map[uint64]uint64
	obs []uint64
}

// SCOutcomes enumerates every outcome reachable by interleaving the
// threads' operations atomically in program order (the definition of SC).
// Outcome positions are stable: thread-major, program order within.
func SCOutcomes(l Litmus) map[Outcome]bool {
	slots := loadSlots(l)
	results := make(map[Outcome]bool)
	var rec func(st enumState)
	rec = func(st enumState) {
		advanced := false
		for tid := range l.Threads {
			if st.pc[tid] >= len(l.Threads[tid]) {
				continue
			}
			advanced = true
			i := st.pc[tid]
			op := l.Threads[tid][i]
			next := enumState{
				pc:  append([]int(nil), st.pc...),
				mem: make(map[uint64]uint64, len(st.mem)),
				obs: append([]uint64(nil), st.obs...),
			}
			for k, v := range st.mem {
				next.mem[k] = v
			}
			next.pc[tid]++
			if op.Store {
				next.mem[op.Line] = op.Val
			} else {
				next.obs[slots[[2]int{tid, i}]] = next.mem[op.Line]
			}
			rec(next)
		}
		if !advanced {
			results[formatOutcome(st.obs)] = true
		}
	}
	rec(enumState{
		pc:  make([]int, len(l.Threads)),
		mem: map[uint64]uint64{},
		obs: make([]uint64, len(slots)),
	})
	return results
}

func formatOutcome(obs []uint64) Outcome {
	parts := make([]string, len(obs))
	for i, v := range obs {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return Outcome(strings.Join(parts, ","))
}

// Trace converts a litmus thread into a warp trace of p. base offsets the
// litmus lines into the machine's address space.
func Trace(p *workload.Program, ops []LitmusOp, base uint64) workload.Trace {
	var tr workload.Trace
	for _, op := range ops {
		if op.Store {
			tr = append(tr, p.Access(workload.OpStore, op.Val, base+op.Line))
		} else {
			tr = append(tr, p.Access(workload.OpLoad, 0, base+op.Line))
		}
	}
	return tr
}

// Recorder collects load observations keyed by (sm, warp) and yields the
// outcome in (thread, program-position) order. Build one per machine: the
// machine calls LoadObserved from the one goroutine that steps it.
type Recorder struct {
	// keyed by sm*maxWarps+warp, each a slice of observed values in
	// completion order. Under SC issue rules completion order equals
	// program order within a warp; under WO litmus traces are fenced.
	perThread map[int][]uint64
	maxWarps  int
}

// NewRecorder builds a recorder; maxWarps is WarpsPerSM.
func NewRecorder(maxWarps int) *Recorder {
	return &Recorder{perThread: make(map[int][]uint64), maxWarps: maxWarps}
}

// LoadObserved implements gpu.Observer.
func (r *Recorder) LoadObserved(sm, warp, pc int, line, val uint64) {
	key := sm*r.maxWarps + warp
	r.perThread[key] = append(r.perThread[key], val)
}

// OutcomeFor assembles the outcome for litmus threads placed at the given
// (sm, warp) coordinates in declaration order.
func (r *Recorder) OutcomeFor(placement [][2]int) Outcome {
	var obs []uint64
	for _, p := range placement {
		key := p[0]*r.maxWarps + p[1]
		obs = append(obs, r.perThread[key]...)
	}
	return formatOutcome(obs)
}

// Keys returns the populated thread keys (diagnostics).
func (r *Recorder) Keys() []int {
	keys := make([]int, 0, len(r.perThread))
	for k := range r.perThread {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// RandomLitmus generates a small random concurrent program (threads x ops
// over a few lines, unique store values) whose SC outcome set is still
// enumerable. Used by property tests: any execution of an SC machine must
// land inside SCOutcomes(l).
func RandomLitmus(rng *timing.RNG, threads, opsPerThread, lines int) Litmus {
	l := Litmus{Name: "random"}
	val := uint64(0)
	for t := 0; t < threads; t++ {
		var ops []LitmusOp
		for i := 0; i < opsPerThread; i++ {
			line := uint64(rng.Intn(lines))
			if rng.Bool(0.5) {
				val++
				ops = append(ops, LitmusOp{Store: true, Line: line, Val: val})
			} else {
				ops = append(ops, LitmusOp{Line: line})
			}
		}
		l.Threads = append(l.Threads, ops)
	}
	return l
}

// FencedTrace converts a litmus thread into a warp trace with a FENCE
// after every operation — the conservative fencing that restores SC on a
// weakly ordered machine.
func FencedTrace(p *workload.Program, ops []LitmusOp, base uint64) workload.Trace {
	plain := Trace(p, ops, base)
	out := make(workload.Trace, 0, 2*len(plain))
	for _, in := range plain {
		out = append(out, in, workload.Instr{Op: workload.OpFence})
	}
	return out
}
