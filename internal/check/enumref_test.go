package check

// The oracle as it was written in text: the string-keyed SC enumerator,
// the Clone-and-sort program canonicaliser and the map-based WellFormed.
// They are kept here only as references the binary implementations are
// tested against (TestEnumerateMatchesReference and its siblings).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

type refNormOp struct {
	kind  workload.OpKind
	idx   int
	lines []uint64
	val   uint64
}

type refEnumState struct {
	pc   []uint8
	mask []uint8
	mem  []uint64
}

func (st *refEnumState) clone() refEnumState {
	return refEnumState{
		pc:   append([]uint8(nil), st.pc...),
		mask: append([]uint8(nil), st.mask...),
		mem:  append([]uint64(nil), st.mem...),
	}
}

func (st *refEnumState) key() string {
	var b []byte
	for i := range st.pc {
		b = append(b, st.pc[i], st.mask[i])
	}
	for _, v := range st.mem {
		b = binary.LittleEndian.AppendUint64(b, v)
	}
	return string(b)
}

// refSres is one suffix result: the observation strings made from a
// state to termination, plus the final memory key.
type refSres struct {
	obs []string
	mem string
}

func (r refSres) canon() string { return CanonOutcome(r.obs) + "|" + r.mem }

type refEnumStep struct {
	obs  string
	next refEnumState
}

type refEnumerator struct {
	threads [][]refNormOp
	groups  [][]int
	limits  EnumLimits
	memo    map[string][]refSres
	states  int
	entries int
}

// refEnumerateStats is Prog.EnumerateStats in text: every suffix result
// carries its observations as ObsKey strings, deduplicated and sorted by
// their canonical text.
func refEnumerateStats(p *Prog, limits EnumLimits) (*SCSet, int, int, error) {
	if err := refWellFormed(p); err != nil {
		return nil, 0, 0, err
	}
	e := &refEnumerator{limits: limits, memo: make(map[string][]refSres)}
	bySM := make(map[int][]int)
	for ti, th := range p.Threads {
		var ops []refNormOp
		for oi, op := range th.Ops {
			switch op.Kind {
			case workload.OpLoad, workload.OpStore, workload.OpAtomic, workload.OpBarrier:
				ops = append(ops, refNormOp{kind: op.Kind, idx: oi, lines: op.Lines, val: op.Val})
			}
		}
		e.threads = append(e.threads, ops)
		bySM[th.SM] = append(bySM[th.SM], ti)
	}
	sms := make([]int, 0, len(bySM))
	for sm := range bySM {
		sms = append(sms, sm)
	}
	sort.Ints(sms)
	for _, sm := range sms {
		e.groups = append(e.groups, bySM[sm])
	}
	init := refEnumState{
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

func (e *refEnumerator) done(st *refEnumState, ti int) bool {
	return int(st.pc[ti]) >= len(e.threads[ti])
}

func (e *refEnumerator) normalize(st *refEnumState) {
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

func (e *refEnumerator) steps(st *refEnumState) []refEnumStep {
	var out []refEnumStep
	for ti := range e.threads {
		if e.done(st, ti) {
			continue
		}
		op := e.threads[ti][st.pc[ti]]
		switch op.kind {
		case workload.OpBarrier:
		case workload.OpAtomic:
			next := st.clone()
			line := op.lines[0]
			old := next.mem[line]
			next.mem[line] = old + op.val
			next.pc[ti]++
			e.normalize(&next)
			out = append(out, refEnumStep{obs: ObsKey(ti, op.idx, line, old), next: next})
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
				out = append(out, refEnumStep{obs: obs, next: next})
			}
		}
	}
	return out
}

func (e *refEnumerator) solve(st refEnumState) ([]refSres, error) {
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
		r := []refSres{{mem: memKey(st.mem)}}
		e.memo[key] = r
		e.entries++
		return r, nil
	}
	dedup := make(map[string]refSres)
	for _, s := range steps {
		sub, err := e.solve(s.next)
		if err != nil {
			return nil, err
		}
		for _, sr := range sub {
			cand := sr
			if s.obs != "" {
				cand = refSres{obs: append([]string{s.obs}, sr.obs...), mem: sr.mem}
			}
			dedup[cand.canon()] = cand
		}
	}
	keys := make([]string, 0, len(dedup))
	for k := range dedup {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	r := make([]refSres, len(keys))
	for i, k := range keys {
		r[i] = dedup[k]
	}
	e.memo[key] = r
	e.entries += len(r)
	if e.entries > e.limits.MaxEntries {
		return nil, fmt.Errorf("%w: more than %d memo entries", ErrEnumLimit, e.limits.MaxEntries)
	}
	return r, nil
}

// refWellFormed is WellFormed with maps for the placement, value,
// barrier-count and per-op line sets, and without the opCap bound.
func refWellFormed(p *Prog) error {
	if len(p.Threads) == 0 {
		return fmt.Errorf("check: program has no threads")
	}
	if p.Lines <= 0 || p.Lines > lineCap {
		return fmt.Errorf("check: program declares %d lines, want 1..%d", p.Lines, lineCap)
	}
	placed := make(map[[2]int]bool)
	vals := make(map[uint64]bool)
	barriers := make(map[int]int)
	for ti, th := range p.Threads {
		if th.SM < 0 || th.Warp < 0 || th.SM >= placeCap || th.Warp >= placeCap {
			return fmt.Errorf("check: thread %d placement (%d,%d) outside [0,%d)", ti, th.SM, th.Warp, placeCap)
		}
		key := [2]int{th.SM, th.Warp}
		if placed[key] {
			return fmt.Errorf("check: threads share placement SM %d warp %d", th.SM, th.Warp)
		}
		placed[key] = true
		if len(th.Ops) == 0 {
			return fmt.Errorf("check: thread %d is empty", ti)
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
				seen := make(map[uint64]bool, len(op.Lines))
				for _, l := range op.Lines {
					if l >= uint64(p.Lines) {
						return fmt.Errorf("check: thread %d op %d: line %d out of range [0,%d)", ti, oi, l, p.Lines)
					}
					if seen[l] {
						return fmt.Errorf("check: thread %d op %d: duplicate line %d", ti, oi, l)
					}
					seen[l] = true
				}
				if op.Kind != workload.OpLoad {
					if op.Val == 0 {
						return fmt.Errorf("check: thread %d op %d: zero store value", ti, oi)
					}
					if vals[op.Val] {
						return fmt.Errorf("check: thread %d op %d: duplicate store value %d", ti, oi, op.Val)
					}
					vals[op.Val] = true
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
		if prev, ok := barriers[th.SM]; ok && prev != nbar {
			return fmt.Errorf("check: SM %d threads disagree on barrier count (%d vs %d)", th.SM, prev, nbar)
		}
		barriers[th.SM] = nbar
	}
	return nil
}

// refApplySym returns the program with SM indices permuted by smPerm and
// line indices by linePerm, threads re-sorted by new placement.
func refApplySym(p *Prog, smPerm, linePerm []int) *Prog {
	q := p.Clone()
	for ti := range q.Threads {
		q.Threads[ti].SM = smPerm[q.Threads[ti].SM]
		for oi := range q.Threads[ti].Ops {
			for li, l := range q.Threads[ti].Ops[oi].Lines {
				q.Threads[ti].Ops[oi].Lines[li] = uint64(linePerm[l])
			}
		}
	}
	sort.SliceStable(q.Threads, func(a, b int) bool {
		if q.Threads[a].SM != q.Threads[b].SM {
			return q.Threads[a].SM < q.Threads[b].SM
		}
		return q.Threads[a].Warp < q.Threads[b].Warp
	})
	return q
}

// refCanonicalProg serializes every symmetric image of a cloned and
// re-sorted program and compares the text.
func refCanonicalProg(p *Prog) bool {
	self := serializeProgFmt(p)
	sms, lines := symShape(p)
	for _, sp := range permutations(sms) {
		for _, lp := range permutations(lines) {
			if s := serializeProgFmt(refApplySym(p, sp, lp)); s < self {
				return false
			}
		}
	}
	return true
}

// refEnumFamily is EnumFamily over refCanonicalProg and refWellFormed,
// building every candidate afresh.
func refEnumFamily(s FamilyShape) []*Prog { return refEnumCandidates(s, refCanonicalProg) }

// refEnumCandidates returns every well-formed candidate of the family
// shape that keep accepts, in EnumFamily's order.
func refEnumCandidates(s FamilyShape, keep func(*Prog) bool) []*Prog {
	threads := s.SMs * s.WarpsPerSM
	kinds := []workload.OpKind{workload.OpLoad, workload.OpStore}
	if s.Atomics {
		kinds = append(kinds, workload.OpAtomic)
	}
	type choice struct {
		kind workload.OpKind
		line uint64
	}
	var menu []choice
	for _, k := range kinds {
		for l := 0; l < s.Lines; l++ {
			menu = append(menu, choice{k, uint64(l)})
		}
	}
	slots := threads * s.OpsPerThread
	var out []*Prog
	pick := make([]int, slots)
	for {
		p := &Prog{Lines: s.Lines}
		val := uint64(0)
		for ti := 0; ti < threads; ti++ {
			th := Thread{SM: ti / s.WarpsPerSM, Warp: ti % s.WarpsPerSM}
			for oi := 0; oi < s.OpsPerThread; oi++ {
				c := menu[pick[ti*s.OpsPerThread+oi]]
				op := Op{Kind: c.kind, Lines: []uint64{c.line}}
				if c.kind != workload.OpLoad {
					val++
					op.Val = val
				}
				th.Ops = append(th.Ops, op)
			}
			p.Threads = append(p.Threads, th)
		}
		if refWellFormed(p) == nil && keep(p) {
			out = append(out, p)
		}
		i := slots - 1
		for ; i >= 0; i-- {
			pick[i]++
			if pick[i] < len(menu) {
				break
			}
			pick[i] = 0
		}
		if i < 0 {
			return out
		}
	}
}

// refFamilyShapes are the family shapes the references are compared on:
// rcccheck's default family (72 programs), its three-SM (408) and
// three-op (1,056) variants, and the default family with fetch-and-adds.
var refFamilyShapes = []FamilyShape{
	{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2},
	{SMs: 3, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2},
	{SMs: 2, WarpsPerSM: 1, OpsPerThread: 3, Lines: 2},
	{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2, Atomics: true},
}

// TestEnumFamilyMatchesReference: every family shape yields the same
// programs, in the same order, as the text canonicaliser.
func TestEnumFamilyMatchesReference(t *testing.T) {
	for _, s := range refFamilyShapes {
		got, want := EnumFamily(s), refEnumFamily(s)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: EnumFamily gives %d programs, the reference %d, or a different order", s, len(got), len(want))
		}
		for i, p := range got {
			if !CanonicalProg(p) {
				t.Fatalf("%v: member %d not canonical:\n%s", s, i, p)
			}
		}
	}
}

// TestCanonicalProgMatchesReference: on every candidate of a family
// (canonical or not) and every symmetric image of it, and on generated
// programs, CanonicalProg agrees with the text canonicaliser.
func TestCanonicalProgMatchesReference(t *testing.T) {
	n := 0
	for _, s := range []FamilyShape{
		{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2, Atomics: true},
		{SMs: 2, WarpsPerSM: 2, OpsPerThread: 1, Lines: 2},
		{SMs: 3, WarpsPerSM: 1, OpsPerThread: 1, Lines: 3},
	} {
		for _, p := range refEnumFamily(s) {
			sms, lines := symShape(p)
			for _, sp := range permutations(sms) {
				for _, lp := range permutations(lines) {
					q := refApplySym(p, sp, lp)
					if got, want := CanonicalProg(q), refCanonicalProg(q); got != want {
						t.Fatalf("CanonicalProg = %v, reference %v:\n%s", got, want, q)
					}
					n++
				}
			}
		}
	}
	gen := DefaultGenConfig()
	for seed := uint64(0); seed < 200; seed++ {
		p := Generate(seed, gen)
		if got, want := CanonicalProg(p), refCanonicalProg(p); got != want {
			t.Fatalf("seed %d: CanonicalProg = %v, reference %v:\n%s", seed, got, want, p)
		}
		n++
	}
	t.Logf("%d programs agree", n)
}

// enumCompare enumerates p with both enumerators under limits and fails
// on any difference: SC set, state and entry counts, and whether the
// limits were hit.
func enumCompare(t *testing.T, name string, p *Prog, limits EnumLimits) (states, entries int) {
	t.Helper()
	want, ws, we, werr := refEnumerateStats(p, limits)
	got, gs, ge, gerr := p.EnumerateStats(limits)
	if gs != ws || ge != we {
		t.Fatalf("%s at %+v: counts (%d states, %d entries), reference (%d, %d)\n%s", name, limits, gs, ge, ws, we, p)
	}
	if errors.Is(gerr, ErrEnumLimit) != errors.Is(werr, ErrEnumLimit) || (gerr == nil) != (werr == nil) {
		t.Fatalf("%s at %+v: error %v, reference %v\n%s", name, limits, gerr, werr, p)
	}
	if gerr != nil && gerr.Error() != werr.Error() {
		t.Fatalf("%s at %+v: error %q, reference %q", name, limits, gerr, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: SC set\n got %s\nwant %s\n%s", name, flattenSet(got), flattenSet(want), p)
	}
	return ws, we
}

// enumCompareLimits compares p at the default limits, then at limits
// halved from its counts, so the limit path is compared as well.
func enumCompareLimits(t *testing.T, name string, p *Prog) {
	t.Helper()
	states, entries := enumCompare(t, name, p, DefaultEnumLimits())
	enumCompare(t, name, p, EnumLimits{MaxStates: states / 2, MaxEntries: entries})
	enumCompare(t, name, p, EnumLimits{MaxStates: states, MaxEntries: entries / 2})
}

// TestEnumerateMatchesReference: the binary enumerator returns the text
// enumerator's SC set, state and entry counts and limit verdict on the
// family shapes, generator seeds, the litmus shapes and the boundary
// program at its pinned limits and one below.
func TestEnumerateMatchesReference(t *testing.T) {
	for _, s := range refFamilyShapes {
		fam := EnumFamily(s)
		for i, p := range fam {
			if testing.Short() && i%9 != 0 {
				continue
			}
			enumCompareLimits(t, fmt.Sprintf("%v #%d", s, i), p)
		}
	}
	seeds := uint64(1000)
	if testing.Short() || raceEnabled {
		seeds = 100
	}
	gen := DefaultGenConfig()
	for seed := uint64(0); seed < seeds; seed++ {
		enumCompareLimits(t, fmt.Sprintf("seed %d", seed), Generate(seed, gen))
	}
	for _, s := range litmusShapes() {
		enumCompareLimits(t, s.Name, s.Prog)
	}
	enumCompareLimits(t, "lease-witness", LeaseWitnessProg())
	for seed := uint64(0); seed < 25; seed++ {
		enumCompareLimits(t, fmt.Sprintf("load/store seed %d", seed), Generate(seed, litmusGen(3)))
	}
	p := boundaryProg()
	states, entries := enumCompare(t, "boundary", p, DefaultEnumLimits())
	for _, l := range []EnumLimits{
		{MaxStates: states, MaxEntries: entries},
		{MaxStates: states - 1, MaxEntries: entries},
		{MaxStates: states, MaxEntries: entries - 1},
	} {
		enumCompare(t, "boundary", p, l)
	}
}

// TestWellFormedMatchesReference: every rejection of the map-based
// WellFormed is made with the same message, on the rejection cases and
// on generated programs with one field broken.
func TestWellFormedMatchesReference(t *testing.T) {
	check := func(p *Prog) {
		t.Helper()
		got, want := p.WellFormed(), refWellFormed(p)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("WellFormed = %v, reference %v\n%s", got, want, p)
		}
	}
	for _, mut := range []func(*Prog){
		func(p *Prog) { p.Threads = nil },
		func(p *Prog) { p.Lines = 0 },
		func(p *Prog) { p.Lines = lineCap + 1 },
		func(p *Prog) { p.Threads[1].SM = 0 },
		func(p *Prog) { p.Threads[1].SM = -1 },
		func(p *Prog) { p.Threads[1].Warp = placeCap },
		func(p *Prog) { p.Threads[1].Ops = nil },
		func(p *Prog) { p.Threads[0].Ops[0].Lines = nil },
		func(p *Prog) { p.Threads[0].Ops[0].Lines = []uint64{0, 1, 2, 3, 4} },
		func(p *Prog) { p.Threads[0].Ops[0].Lines = []uint64{1, 1} },
		func(p *Prog) { p.Threads[0].Ops[1].Val = 1 },
		func(p *Prog) { p.Threads[0].Ops[0] = Op{Kind: workload.OpAtomic, Lines: []uint64{0, 1}, Val: 9} },
		func(p *Prog) { p.Threads[1].Ops = append(p.Threads[1].Ops, Op{Kind: workload.OpBarrier}) },
		func(p *Prog) {
			p.Threads[0].Ops = append([]Op{{Kind: workload.OpBarrier}}, p.Threads[0].Ops...)
			p.Threads[1].SM = 0
			p.Threads[1].Warp = 1
		},
		func(p *Prog) { p.Threads[1].Ops[0] = Op{Kind: workload.OpLocal} },
	} {
		p := mp()
		mut(p)
		check(p)
	}
	// Past 64 stores the value set spills into a map; a duplicate is
	// still caught on either side of the spill.
	for _, dup := range []int{10, 90} {
		p := &Prog{Lines: 1, Threads: []Thread{{}}}
		for v := 1; v <= 100; v++ {
			p.Threads[0].Ops = append(p.Threads[0].Ops, Op{Kind: workload.OpStore, Lines: []uint64{0}, Val: uint64(v)})
		}
		check(p)
		p.Threads[0].Ops = append(p.Threads[0].Ops, Op{Kind: workload.OpStore, Lines: []uint64{0}, Val: uint64(dup)})
		check(p)
	}
	gen := DefaultGenConfig()
	rng := timing.NewRNG(5)
	for seed := uint64(0); seed < 300; seed++ {
		p := Generate(seed, gen)
		check(p)
		// Break one field of one op: a line, a value, or the kind.
		th := &p.Threads[rng.Intn(len(p.Threads))]
		op := &th.Ops[rng.Intn(len(th.Ops))]
		switch rng.Intn(4) {
		case 0:
			if len(op.Lines) > 0 {
				op.Lines[rng.Intn(len(op.Lines))] = uint64(rng.Intn(p.Lines + 1))
			}
		case 1:
			op.Val = uint64(rng.Intn(4))
		case 2:
			op.Kind = workload.OpKind(rng.Intn(8))
		case 3:
			th.Warp = rng.Intn(3)
		}
		check(p)
	}
}
