package check

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unsafe"

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

// ObsKey is the canonical text of one observation, "T<ti>#<opIdx>@<line>=<val>":
// thread ti's operation opIdx read value val from program line. The
// enumerator builds outcome keys from it; the machine-side recorder keeps
// binary entries and renders this text once per distinct outcome, so an
// SC-set lookup compares the same strings either way.
func ObsKey(ti, opIdx int, line, val uint64) string {
	var buf [64]byte
	b := append(buf[:0], 'T')
	b = strconv.AppendInt(b, int64(ti), 10)
	b = append(b, '#')
	b = strconv.AppendInt(b, int64(opIdx), 10)
	b = append(b, '@')
	b = strconv.AppendUint(b, line, 10)
	b = append(b, '=')
	b = strconv.AppendUint(b, val, 10)
	return string(b)
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
	pos   int // observation position of sub-access 0 (loads, atomics)
}

// memKey is the canonical final-memory key: the line values in decimal,
// comma-separated.
func memKey(mem []uint64) string {
	var buf [64]byte
	b := buf[:0]
	for i, v := range mem {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendUint(b, v, 10)
	}
	return string(b)
}

// The enumerator works in binary and renders text only for the SCSet it
// returns.
//
// A state is one node of the interleaving space, kept as its own memo
// key: the pc and completed sub-access mask byte of each thread, then
// each memory word as 8 little-endian bytes. Every state of one program
// has the same length, and the state of depth d (steps taken from the
// root) lives at a fixed slot of one buffer, so a successor is built by
// copying its parent into the next slot. Observations are NOT part of
// the state: programs are straight-line, so the values loads return never
// influence which steps are enabled. That independence is what makes
// suffix memoization sound — two prefixes reaching the same (pc, submask,
// memory) triple share all suffix behaviours.
//
// An observation position is one load sub-access or one atomic, numbered
// densely in (thread, op, line) program order; the positions are fixed by
// the program. A suffix result (the observations made from a state to
// termination, plus the final memory image) is a row of one slab: a value
// word per position, then a word per memory line. Positions the suffix
// does not observe hold 0 — every suffix of one state observes the same
// positions, so rows of one memo entry still compare by content. A memo
// entry lists row indices in a second slab. Prepending a step's
// observation copies the successor's row and writes one word; a step
// without one (a store) reuses the successor's rows as they are. Rows of
// one state are deduplicated through their hash, a sum of one term per
// word that the one-word change updates in O(1), and a content comparison.
//
// The memo maps each solved state's bytes to its entry. An enumerator is
// reused from call to call (enumPool), so its slabs, once grown, serve
// every later program; storage a large program grew past keepBytes is
// dropped instead, so the pool does not hold on to it.
type enumerator struct {
	threads  [][]normOp
	members  []int // threads by SM: the barrier groups, each ending ...
	groupEnd []int // ... at groupEnd[g]
	limits   EnumLimits

	npos   int // observation positions
	width  int // row width: npos value words, then the memory image
	memOff int // offset of the memory image in a state
	slen   int // state length in bytes

	stack []byte            // the state of each depth, slen bytes apiece
	memo  map[string]rowSet // suffix results of each solved state
	lists []int32           // row indices of every memo entry
	rows  []uint64          // row slab, width words apiece
	hash  []uint64          // hash of each row
	kids  []enumKid         // successors of the states being solved
	table []int32           // open-addressed dedup set of row index+1

	order  []int32 // render: positions in outcome-text order
	prefix []byte  // render: each position's ObsKey prefix ...
	preEnd []int32 // ... ending at preEnd[pos]
	text   []byte  // render: the outcome being rendered

	states  int
	entries int
}

var enumPool = sync.Pool{New: func() any { return new(enumerator) }}

// rowSet is a memo entry: n row indices at lists[off:].
type rowSet struct{ off, n int }

// enumKid is one enabled transition of a state being solved: the
// successor's suffix results and the observation the step makes, at
// position pos (-1 for none) with value val.
type enumKid struct {
	sub rowSet
	pos int
	val uint64
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
	e := enumPool.Get().(*enumerator)
	defer enumPool.Put(e)
	return e.run(p, limits)
}

// run enumerates p with the enumerator's storage, and leaves no reference
// into p behind.
func (e *enumerator) run(p *Prog, limits EnumLimits) (*SCSet, int, int, error) {
	e.reset(p, limits)
	defer func() {
		for _, ops := range e.threads {
			clear(ops)
		}
	}()
	e.normalize(e.state(0))
	results, err := e.solve(0)
	if err != nil {
		return nil, e.states, e.entries, err
	}
	return e.render(results), e.states, e.entries, nil
}

// keepBytes bounds the size of a slab, and keepStates the memo, that an
// enumerator keeps from one program to the next. The first thousand
// generator programs all stay below both (the largest fills 9 MB of
// rows); a program near MaxEntries, whose rows can run to hundreds of
// MB, does not.
const (
	keepBytes  = 1 << 24
	keepStates = 1 << 12
)

// keep returns s emptied for reuse, or nil if it grew past keepBytes.
func keep[T any](s []T) []T {
	var z T
	if cap(s)*int(unsafe.Sizeof(z)) > keepBytes {
		return nil
	}
	return s[:0]
}

// reset readies the enumerator for p, keeping its storage.
func (e *enumerator) reset(p *Prog, limits EnumLimits) {
	e.limits, e.states, e.entries, e.npos = limits, 0, 0, 0
	depth := 0 // longest path: one step per sub-access
	e.threads = slices.Grow(keep(e.threads), len(p.Threads))[:len(p.Threads)]
	for ti, th := range p.Threads {
		ops := keep(e.threads[ti])
		for oi, op := range th.Ops {
			switch op.Kind {
			case workload.OpLoad, workload.OpStore, workload.OpAtomic, workload.OpBarrier:
				ops = append(ops, normOp{kind: op.Kind, idx: oi, lines: op.Lines, val: op.Val, pos: e.npos})
				if op.Kind == workload.OpLoad || op.Kind == workload.OpAtomic {
					e.npos += len(op.Lines)
				}
				if op.Kind != workload.OpBarrier {
					depth += len(op.Lines)
				}
			}
		}
		e.threads[ti] = ops
	}
	// Barrier groups in sorted SM order, threads in program order within
	// each: the exploration order, and with it whether a program at the
	// MaxStates/MaxEntries boundary passes, must not depend on anything
	// but the program.
	e.members, e.groupEnd = keep(e.members), keep(e.groupEnd)
	for sm := 0; sm < placeCap; sm++ {
		n := len(e.members)
		for ti, th := range p.Threads {
			if th.SM == sm {
				e.members = append(e.members, ti)
			}
		}
		if len(e.members) > n {
			e.groupEnd = append(e.groupEnd, len(e.members))
		}
	}

	e.width = e.npos + p.Lines
	e.memOff = 2 * len(e.threads)
	e.slen = e.memOff + 8*p.Lines
	e.stack = slices.Grow(keep(e.stack), (depth+1)*e.slen)[:(depth+1)*e.slen]
	clear(e.state(0))
	e.lists, e.rows, e.hash, e.kids, e.table = keep(e.lists), keep(e.rows), keep(e.hash), keep(e.kids), keep(e.table)
	e.order, e.prefix, e.preEnd, e.text = keep(e.order), keep(e.prefix), keep(e.preEnd), keep(e.text)
	if e.memo == nil || len(e.memo) > keepStates {
		e.memo = make(map[string]rowSet)
	}
	clear(e.memo)
}

// state returns the state slot of depth d.
func (e *enumerator) state(d int) []byte { return e.stack[d*e.slen : (d+1)*e.slen] }

func (e *enumerator) mem(st []byte, line uint64) uint64 {
	return binary.LittleEndian.Uint64(st[e.memOff+8*int(line):])
}

func (e *enumerator) setMem(st []byte, line, v uint64) {
	binary.LittleEndian.PutUint64(st[e.memOff+8*int(line):], v)
}

func (e *enumerator) done(st []byte, ti int) bool {
	return int(st[2*ti]) >= len(e.threads[ti])
}

// normalize fires every releasable barrier in place. A thread whose
// current op is a barrier can take no other step, and releasing one is a
// no-op on memory, so firing eagerly prunes states without losing
// interleavings. A barrier releases when every non-done thread of the SM
// group is parked at its (alignment-guaranteed identical) barrier
// ordinal; done threads have passed every barrier already and are
// excluded, matching the machine's live-warp barrier semantics.
func (e *enumerator) normalize(st []byte) {
	for {
		fired, start := false, 0
		for _, end := range e.groupEnd {
			g := e.members[start:end]
			start = end
			ready, any := true, false
			for _, ti := range g {
				if e.done(st, ti) {
					continue
				}
				if e.threads[ti][st[2*ti]].kind == workload.OpBarrier {
					any = true
				} else {
					ready = false
				}
			}
			if any && ready {
				for _, ti := range g {
					if !e.done(st, ti) {
						st[2*ti]++
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

// solve returns the suffix results of the state at depth d, memoized.
// Its enabled transitions are each one atomic line-access: a sub-line of
// a (possibly divergent) load or store, or a whole fetch-and-add.
// Sub-accesses of one instruction are mutually unordered — the machine
// issues them concurrently — and the instruction retires (pc advances)
// when its last sub-access lands. Each successor is built in the slot of
// depth d+1 and solved before the next one is built; the results are
// merged once every successor is solved.
func (e *enumerator) solve(d int) (rowSet, error) {
	st := e.state(d)
	if r, ok := e.memo[string(st)]; ok {
		return r, nil
	}
	e.states++
	if e.states > e.limits.MaxStates {
		return rowSet{}, fmt.Errorf("%w: more than %d states", ErrEnumLimit, e.limits.MaxStates)
	}
	base := len(e.kids)
	for ti := range e.threads {
		if e.done(st, ti) {
			continue
		}
		op := &e.threads[ti][st[2*ti]]
		switch op.kind {
		case workload.OpBarrier:
			// Blocked: releases only via normalize.
		case workload.OpAtomic:
			next := e.state(d + 1)
			copy(next, st)
			line := op.lines[0]
			old := e.mem(next, line)
			e.setMem(next, line, old+op.val)
			next[2*ti]++
			e.normalize(next)
			if err := e.step(d, op.pos, old); err != nil {
				return rowSet{}, err
			}
		case workload.OpLoad, workload.OpStore:
			full := uint8(1<<len(op.lines)) - 1
			mask := st[2*ti+1]
			for li, line := range op.lines {
				bit := uint8(1) << li
				if mask&bit != 0 {
					continue
				}
				next := e.state(d + 1)
				copy(next, st)
				pos, val := -1, uint64(0)
				if op.kind == workload.OpLoad {
					pos, val = op.pos+li, e.mem(next, line)
				} else {
					e.setMem(next, line, op.val)
				}
				next[2*ti+1] |= bit
				if next[2*ti+1] == full {
					next[2*ti+1] = 0
					next[2*ti]++
					e.normalize(next)
				}
				if err := e.step(d, pos, val); err != nil {
					return rowSet{}, err
				}
			}
		}
	}
	if len(e.kids) == base {
		r := rowSet{off: len(e.lists), n: 1}
		e.lists = append(e.lists, e.terminalRow(st))
		e.memo[string(st)] = r
		e.entries++
		return r, nil
	}
	r := e.merge(e.kids[base:])
	e.kids = e.kids[:base]
	e.memo[string(st)] = r
	e.entries += r.n
	if e.entries > e.limits.MaxEntries {
		return rowSet{}, fmt.Errorf("%w: more than %d memo entries", ErrEnumLimit, e.limits.MaxEntries)
	}
	return r, nil
}

// step solves the successor built at depth d+1 and records it as a kid
// of the state at depth d.
func (e *enumerator) step(d, pos int, val uint64) error {
	sub, err := e.solve(d + 1)
	if err != nil {
		return err
	}
	e.kids = append(e.kids, enumKid{sub: sub, pos: pos, val: val})
	return nil
}

// rowTerm is the hash contribution of value v at word i of a row. A row's
// hash is the sum of its words' terms.
func rowTerm(i int, v uint64) uint64 {
	return fmix64(v ^ uint64(i+1)*0x9e3779b97f4a7c15)
}

// terminalRow adds the row of a terminal state: no observations, its
// memory image.
func (e *enumerator) terminalRow(st []byte) int32 {
	idx := int32(len(e.hash))
	e.rows = grow(e.rows, e.width)
	var h uint64
	for i := 0; i < e.width; i++ {
		var v uint64
		if i >= e.npos {
			v = e.mem(st, uint64(i-e.npos))
		}
		e.rows = append(e.rows, v)
		h += rowTerm(i, v)
	}
	e.hash = append(e.hash, h)
	return idx
}

// merge builds a state's memo entry from its kids: every successor row,
// with the kid's observation written in, once per distinct content.
func (e *enumerator) merge(kids []enumKid) rowSet {
	if len(kids) == 1 && kids[0].pos < 0 {
		return kids[0].sub // a lone store: the successor's rows as they are
	}
	n := 0
	for _, k := range kids {
		n += k.sub.n
	}
	size := 4
	for size < 2*n {
		size <<= 1
	}
	if cap(e.table) < size {
		e.table = make([]int32, size)
	}
	table := e.table[:size]
	clear(table)
	out := rowSet{off: len(e.lists)}
	for _, k := range kids {
		for j := 0; j < k.sub.n; j++ {
			src := e.lists[k.sub.off+j]
			h := e.hash[src]
			if k.pos >= 0 {
				h += rowTerm(k.pos, k.val) - rowTerm(k.pos, 0)
			}
			slot := int(h) & (size - 1)
			dup := false
			for ; table[slot] != 0; slot = (slot + 1) & (size - 1) {
				if r := table[slot] - 1; e.hash[r] == h && e.rowEqual(r, src, k.pos, k.val) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			row := src
			if k.pos >= 0 {
				row = int32(len(e.hash))
				at := int(src) * e.width
				e.rows = grow(e.rows, e.width)
				e.rows = append(e.rows, e.rows[at:at+e.width]...)
				e.rows[int(row)*e.width+k.pos] = k.val
				e.hash = append(e.hash, h)
			}
			table[slot] = row + 1
			e.lists = append(e.lists, row)
		}
	}
	out.n = len(e.lists) - out.off
	return out
}

// grow returns s with room for n more elements. It doubles the capacity
// where append grows a large slice by a quarter: a slab only grows within
// one enumeration, and every regrowth copies all of it.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, max(n, cap(s)))
}

// rowEqual reports whether row r equals row src with word pos (if
// non-negative) set to val.
func (e *enumerator) rowEqual(r, src int32, pos int, val uint64) bool {
	a := e.rows[int(r)*e.width : int(r+1)*e.width]
	b := e.rows[int(src)*e.width : int(src+1)*e.width]
	for i := range a {
		w := b[i]
		if i == pos {
			w = val
		}
		if a[i] != w {
			return false
		}
	}
	return true
}

// render turns the root's rows into the SCSet text. Every outcome of the
// program observes every position once, and an observation's ObsKey text
// orders by its "T<ti>#<op>@<line>=" prefix alone (each prefix ends in its
// only '=', so none is a prefix of another): one permutation of the
// positions, computed once, sorts every outcome.
func (e *enumerator) render(results rowSet) *SCSet {
	e.prefix, e.preEnd = e.prefix[:0], e.preEnd[:0]
	for ti, ops := range e.threads {
		for _, op := range ops {
			if op.kind != workload.OpLoad && op.kind != workload.OpAtomic {
				continue
			}
			for _, line := range op.lines {
				e.prefix = append(strconv.AppendInt(append(e.prefix, 'T'), int64(ti), 10), '#')
				e.prefix = append(strconv.AppendInt(e.prefix, int64(op.idx), 10), '@')
				e.prefix = append(strconv.AppendUint(e.prefix, line, 10), '=')
				e.preEnd = append(e.preEnd, int32(len(e.prefix)))
			}
		}
	}
	pre := func(pos int32) []byte {
		start := int32(0)
		if pos > 0 {
			start = e.preEnd[pos-1]
		}
		return e.prefix[start:e.preEnd[pos]]
	}
	e.order = e.order[:0]
	for pos := 0; pos < e.npos; pos++ {
		e.order = append(e.order, int32(pos))
	}
	slices.SortFunc(e.order, func(a, b int32) int { return bytes.Compare(pre(a), pre(b)) })

	set := &SCSet{Outcomes: make(map[string]map[string]bool)}
	for j := 0; j < results.n; j++ {
		at := int(e.lists[results.off+j]) * e.width
		row := e.rows[at : at+e.width]
		b := e.text[:0]
		for i, pos := range e.order {
			if i > 0 {
				b = append(b, ';')
			}
			b = strconv.AppendUint(append(b, pre(pos)...), row[pos], 10)
		}
		e.text = b
		mems := set.Outcomes[string(b)]
		if mems == nil {
			mems = make(map[string]bool)
			set.Outcomes[string(b)] = mems
		}
		mems[memKey(row[e.npos:])] = true
	}
	return set
}
