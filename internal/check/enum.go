package check

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"rccsim/internal/workload"
)

// EnumLimits bounds the SC enumeration. The suffix memoization keeps
// typical fuzzer-sized programs (a dozen line-accesses) far below these,
// but a pathological program can still blow up combinatorially; hitting a
// limit is reported as an error, not a verdict.
type EnumLimits struct {
	MaxStates  int // distinct (pc, submask, memory) nodes explored
	MaxEntries int // total (observation, final-memory) records memoized
}

// ErrEnumLimit is wrapped by the error of an enumeration that hit its
// EnumLimits: the program is too large to check, which makes it a skip,
// not a verdict and not a fault of the harness.
var ErrEnumLimit = errors.New("check: SC enumeration exceeds its limits")

// DefaultEnumLimits is sized for the generator's access budget with an
// order of magnitude of slack.
func DefaultEnumLimits() EnumLimits {
	return EnumLimits{MaxStates: 1 << 20, MaxEntries: 1 << 22}
}

// SCSet is the exact set of executions sequential consistency permits for
// a program: every reachable observation outcome, and for each outcome
// the final memory images SC allows with it.
type SCSet struct {
	// Outcomes maps a canonical outcome key (sorted observation entries
	// joined by ";") to the set of canonical final-memory keys reachable
	// together with that outcome.
	Outcomes map[string]map[string]bool
}

// ObsKey is the canonical key of one observation: thread ti's operation
// opIdx read value val from program line. Both the enumerator and the
// machine-side recorder emit exactly this form, so membership checks are
// string comparisons.
func ObsKey(ti, opIdx int, line, val uint64) string {
	return fmt.Sprintf("T%d#%d@%d=%d", ti, opIdx, line, val)
}

// CanonOutcome sorts observation entries into the canonical outcome key.
func CanonOutcome(entries []string) string {
	s := append([]string(nil), entries...)
	sort.Strings(s)
	return strings.Join(s, ";")
}

// AllowsOutcome reports whether SC permits the observation outcome at all.
func (s *SCSet) AllowsOutcome(outcome string) bool {
	_, ok := s.Outcomes[outcome]
	return ok
}

// AllowsFinal reports whether SC permits final memory image mem together
// with the observation outcome.
func (s *SCSet) AllowsFinal(outcome, mem string) bool {
	return s.Outcomes[outcome][mem]
}

// Size returns the number of distinct outcomes and (outcome, memory)
// pairs.
func (s *SCSet) Size() (outcomes, pairs int) {
	for _, mems := range s.Outcomes {
		pairs += len(mems)
	}
	return len(s.Outcomes), pairs
}

// normOp is a program operation with memory-visible effect. Fences and
// computes are dropped during normalization — under SC they neither
// constrain interleavings beyond program order nor touch memory — but the
// original operation index is retained because the machine keys its
// observations by trace position.
type normOp struct {
	kind  workload.OpKind // OpLoad, OpStore, OpAtomic or OpBarrier
	idx   int             // index in the original Thread.Ops
	lines []uint64
	val   uint64
}

// enumState is one node of the interleaving space. Observations are NOT
// part of the state: programs are straight-line, so the values loads
// return never influence which steps are enabled. That independence is
// what makes suffix memoization sound — two prefixes reaching the same
// (pc, submask, memory) triple share all suffix behaviours.
type enumState struct {
	pc   []uint8  // next normalized op per thread
	mask []uint8  // completed sub-access bitmask of the current op
	mem  []uint64 // memory image, indexed by program line
}

func (st *enumState) clone() enumState {
	return enumState{
		pc:   append([]uint8(nil), st.pc...),
		mask: append([]uint8(nil), st.mask...),
		mem:  append([]uint64(nil), st.mem...),
	}
}

func (st *enumState) key() string {
	var b strings.Builder
	b.Grow(len(st.pc)*2 + len(st.mem)*4)
	for i := range st.pc {
		b.WriteByte(st.pc[i])
		b.WriteByte(st.mask[i])
	}
	b.WriteByte('|')
	for _, v := range st.mem {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}

func memKey(mem []uint64) string {
	parts := make([]string, len(mem))
	for i, v := range mem {
		parts[i] = fmt.Sprintf("%d", v)
	}
	return strings.Join(parts, ",")
}

// sres is one suffix result: the observations made from a state to
// termination, plus the final memory image.
type sres struct {
	obs []string
	mem string
}

func (r sres) canon() string {
	return CanonOutcome(r.obs) + "|" + r.mem
}

// enumStep is one enabled transition: an optional observation plus the
// successor state (already re-normalized).
type enumStep struct {
	obs  string
	next enumState
}

type enumerator struct {
	threads [][]normOp
	groups  [][]int // threads sharing an SM (barrier groups)
	limits  EnumLimits
	memo    map[string][]sres
	states  int
	entries int
}

// Enumerate computes the exact SC execution set of the program. It
// requires WellFormed to hold and returns an error if the interleaving
// space exceeds limits.
func (p *Prog) Enumerate(limits EnumLimits) (*SCSet, error) {
	set, _, _, err := p.EnumerateStats(limits)
	return set, err
}

// EnumerateStats is Enumerate plus the exploration counters the limits
// bound: distinct (pc, submask, memory) states visited and memo entries
// recorded. The model checker reports them, and the near-limit
// determinism test pins them run-to-run.
func (p *Prog) EnumerateStats(limits EnumLimits) (*SCSet, int, int, error) {
	if err := p.WellFormed(); err != nil {
		return nil, 0, 0, err
	}
	e := &enumerator{limits: limits, memo: make(map[string][]sres)}
	bySM := make(map[int][]int)
	for ti, th := range p.Threads {
		var ops []normOp
		for oi, op := range th.Ops {
			switch op.Kind {
			case workload.OpLoad, workload.OpStore, workload.OpAtomic, workload.OpBarrier:
				ops = append(ops, normOp{kind: op.Kind, idx: oi, lines: op.Lines, val: op.Val})
			}
		}
		e.threads = append(e.threads, ops)
		bySM[th.SM] = append(bySM[th.SM], ti)
	}
	// Barrier groups in sorted SM order: ranging over the map directly
	// would make group order — and with it the whole exploration — depend
	// on Go's randomized map iteration, so a program sitting at the
	// MaxStates/MaxEntries boundary could flip between a verdict and an
	// "exceeds limits" error across runs.
	sms := make([]int, 0, len(bySM))
	for sm := range bySM {
		sms = append(sms, sm)
	}
	sort.Ints(sms)
	for _, sm := range sms {
		e.groups = append(e.groups, bySM[sm])
	}

	init := enumState{
		pc:   make([]uint8, len(e.threads)),
		mask: make([]uint8, len(e.threads)),
		mem:  make([]uint64, p.Lines),
	}
	e.normalize(&init)
	results, err := e.solve(init)
	if err != nil {
		return nil, e.states, e.entries, err
	}
	set := &SCSet{Outcomes: make(map[string]map[string]bool)}
	for _, r := range results {
		out := CanonOutcome(r.obs)
		if set.Outcomes[out] == nil {
			set.Outcomes[out] = make(map[string]bool)
		}
		set.Outcomes[out][r.mem] = true
	}
	return set, e.states, e.entries, nil
}

func (e *enumerator) done(st *enumState, ti int) bool {
	return int(st.pc[ti]) >= len(e.threads[ti])
}

// normalize fires every releasable barrier in place. A thread whose
// current op is a barrier can take no other step, and releasing one is a
// no-op on memory, so firing eagerly prunes states without losing
// interleavings. A barrier releases when every non-done thread of the SM
// group is parked at its (alignment-guaranteed identical) barrier
// ordinal; done threads have passed every barrier already and are
// excluded, matching the machine's live-warp barrier semantics.
func (e *enumerator) normalize(st *enumState) {
	for {
		fired := false
		for _, g := range e.groups {
			ready, any := true, false
			for _, ti := range g {
				if e.done(st, ti) {
					continue
				}
				if e.threads[ti][st.pc[ti]].kind == workload.OpBarrier {
					any = true
				} else {
					ready = false
				}
			}
			if any && ready {
				for _, ti := range g {
					if !e.done(st, ti) {
						st.pc[ti]++
					}
				}
				fired = true
			}
		}
		if !fired {
			return
		}
	}
}

// steps enumerates the enabled transitions of st. Each step is one atomic
// line-access: a sub-line of a (possibly divergent) load or store, or a
// whole fetch-and-add. Sub-accesses of one instruction are mutually
// unordered — the machine issues them concurrently — and the instruction
// retires (pc advances) when its last sub-access lands.
func (e *enumerator) steps(st *enumState) []enumStep {
	var out []enumStep
	for ti := range e.threads {
		if e.done(st, ti) {
			continue
		}
		op := e.threads[ti][st.pc[ti]]
		switch op.kind {
		case workload.OpBarrier:
			// Blocked: releases only via normalize.
		case workload.OpAtomic:
			next := st.clone()
			line := op.lines[0]
			old := next.mem[line]
			next.mem[line] = old + op.val
			next.pc[ti]++
			e.normalize(&next)
			out = append(out, enumStep{obs: ObsKey(ti, op.idx, line, old), next: next})
		case workload.OpLoad, workload.OpStore:
			full := uint8(1<<len(op.lines)) - 1
			for li, line := range op.lines {
				bit := uint8(1) << li
				if st.mask[ti]&bit != 0 {
					continue
				}
				next := st.clone()
				var obs string
				if op.kind == workload.OpLoad {
					obs = ObsKey(ti, op.idx, line, next.mem[line])
				} else {
					next.mem[line] = op.val
				}
				next.mask[ti] |= bit
				if next.mask[ti] == full {
					next.mask[ti] = 0
					next.pc[ti]++
					e.normalize(&next)
				}
				out = append(out, enumStep{obs: obs, next: next})
			}
		}
	}
	return out
}

func (e *enumerator) solve(st enumState) ([]sres, error) {
	key := st.key()
	if r, ok := e.memo[key]; ok {
		return r, nil
	}
	e.states++
	if e.states > e.limits.MaxStates {
		return nil, fmt.Errorf("%w: more than %d states", ErrEnumLimit, e.limits.MaxStates)
	}
	steps := e.steps(&st)
	if len(steps) == 0 {
		r := []sres{{mem: memKey(st.mem)}}
		e.memo[key] = r
		e.entries++
		return r, nil
	}
	dedup := make(map[string]sres)
	for _, s := range steps {
		sub, err := e.solve(s.next)
		if err != nil {
			return nil, err
		}
		for _, sr := range sub {
			cand := sr
			if s.obs != "" {
				obs := make([]string, 0, len(sr.obs)+1)
				obs = append(obs, s.obs)
				obs = append(obs, sr.obs...)
				cand = sres{obs: obs, mem: sr.mem}
			}
			dedup[cand.canon()] = cand
		}
	}
	r := make([]sres, 0, len(dedup))
	for _, v := range dedup {
		r = append(r, v)
	}
	// Canonical order inside each memo entry: the dedup map's iteration
	// order is randomized, and while set-valued results make the final
	// SCSet order-independent, sorting here keeps every intermediate
	// structure bit-deterministic too (and test failures reproducible).
	sort.Slice(r, func(i, j int) bool { return r[i].canon() < r[j].canon() })
	e.memo[key] = r
	e.entries += len(r)
	if e.entries > e.limits.MaxEntries {
		return nil, fmt.Errorf("%w: more than %d memo entries", ErrEnumLimit, e.limits.MaxEntries)
	}
	return r, nil
}
