package span

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
)

// Quantiles summarizes a latency distribution in cycles.
type Quantiles struct {
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

func quantiles(v []uint64) Quantiles {
	if len(v) == 0 {
		return Quantiles{}
	}
	slices.Sort(v)
	at := func(p float64) uint64 {
		i := int(p * float64(len(v)-1))
		return v[i]
	}
	return Quantiles{P50: at(0.50), P90: at(0.90), P99: at(0.99), Max: v[len(v)-1]}
}

// OpJSON is the wire form of one op for /spans and artifacts.
type OpJSON struct {
	ID       uint64            `json:"id"`
	Kind     string            `json:"kind"`
	SM       int               `json:"sm"`
	Warp     int               `json:"warp"`
	Line     uint64            `json:"line"`
	Issue    uint64            `json:"issue"`
	Finish   uint64            `json:"finish"`
	Total    uint64            `json:"total"`
	Segs     map[string]uint64 `json:"segs"`
	Deps     []Dep             `json:"deps,omitempty"`
	Children []ChildJSON       `json:"children,omitempty"`
}

// ChildJSON is the wire form of a protocol sub-span.
type ChildJSON struct {
	Why   string `json:"why"`
	Start uint64 `json:"start"`
	End   uint64 `json:"end"`
}

// PathStep is one hop of the extracted critical path, oldest first.
// Gap is the idle distance charged between this op's finish and the
// next hop's finish.
type PathStep struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	Why   string `json:"why,omitempty"`
	Total uint64 `json:"total"`
}

// Critical is the longest causal chain over finished spans.
type Critical struct {
	Cycles uint64     `json:"cycles"`
	Ops    int        `json:"ops"`
	Path   []PathStep `json:"path,omitempty"`
}

// Summary is the /spans payload: distribution, blame, causality.
type Summary struct {
	Tracked  int                  `json:"tracked"`
	Live     int                  `json:"live"`
	Every    uint64               `json:"every"`
	Total    Quantiles            `json:"total"`
	Segments map[string]Quantiles `json:"segments"`
	SegSum   map[string]uint64    `json:"seg_cycles"`
	Critical Critical             `json:"critical_path"`
	Slowest  []OpJSON             `json:"slowest"`
}

func opJSON(o *Op) OpJSON {
	segs := make(map[string]uint64)
	for s, n := range o.Segs {
		if n != 0 {
			segs[Seg(s).Name()] = n
		}
	}
	var kids []ChildJSON
	for _, c := range o.Children {
		kids = append(kids, ChildJSON{Why: c.Why, Start: uint64(c.Start), End: uint64(c.End)})
	}
	return OpJSON{
		ID: o.ID, Kind: o.Kind.String(), SM: o.SM, Warp: o.Warp, Line: o.Line,
		Issue: uint64(o.Issue), Finish: uint64(o.Finish), Total: o.Total(),
		Segs: segs, Deps: o.Deps, Children: kids,
	}
}

// Summarize computes the waterfall/critical-path summary over finished
// spans, keeping the topN slowest ops with full breakdowns.
func (r *Recorder) Summarize(topN int) Summary {
	ops := r.Done()
	s := Summary{
		Tracked:  len(ops),
		Live:     r.LiveCount(),
		Every:    r.Every(),
		Segments: make(map[string]Quantiles),
		SegSum:   make(map[string]uint64),
	}
	if len(ops) == 0 {
		return s
	}
	// One backing array holds the totals, then each segment's column.
	cols := make([]uint64, (1+int(numSegs))*len(ops))
	totals := cols[:len(ops)]
	var segSum [numSegs]uint64
	for i, o := range ops {
		totals[i] = o.Total()
		for g, n := range &o.Segs {
			segSum[g] += n
			cols[(1+g)*len(ops)+i] = n
		}
	}
	s.Total = quantiles(totals)
	for g := Seg(0); g < numSegs; g++ {
		if segSum[g] != 0 {
			s.SegSum[g.Name()] = segSum[g]
			s.Segments[g.Name()] = quantiles(cols[(1+int(g))*len(ops) : (2+int(g))*len(ops)])
		}
	}
	s.Critical = criticalPath(ops)
	for _, o := range slowest(ops, topN) {
		s.Slowest = append(s.Slowest, opJSON(o))
	}
	return s
}

// slower orders ops slowest first, ties by ID.
func slower(a, b *Op) int {
	if c := cmp.Compare(b.Total(), a.Total()); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// slowest returns the n slowest ops in slower order.
func slowest(ops []*Op, n int) []*Op {
	n = min(n, len(ops))
	if n <= 0 {
		return nil
	}
	all := slices.Clone(ops)
	slices.SortFunc(all, slower)
	return all[:n]
}

// criticalPath runs the DP
//
//	cp(s) = max(dur(s), max over deps d with d.Finish <= s.Finish of
//	             cp(d) + (s.Finish - d.Finish))
//
// over the finished-span DAG (edges restricted to non-increasing
// finish times, so the walk is acyclic up to same-cycle ties, which a
// visiting mark breaks). By induction cp(s) <= s.Finish - minIssue, so
// the extracted length never exceeds the run span; and cp(s) >= dur(s)
// bounds it below by the slowest single op — the two invariants the
// acceptance test pins. Per-op state lives in slices indexed like ops;
// a dependency's index is found by binary search over the IDs.
func criticalPath(ops []*Op) Critical {
	type idAt struct {
		id uint64
		at int32 // index in ops
	}
	byID := make([]idAt, len(ops))
	for i, o := range ops {
		byID[i] = idAt{o.ID, int32(i)}
	}
	slices.SortFunc(byID, func(a, b idAt) int { return cmp.Compare(a.id, b.id) })
	find := func(id uint64) int {
		j, ok := slices.BinarySearchFunc(byID, id, func(e idAt, id uint64) int { return cmp.Compare(e.id, id) })
		if !ok {
			return -1
		}
		return int(byID[j].at)
	}

	const (
		unseen uint8 = iota
		visiting
		known
	)
	state := make([]uint8, len(ops))
	memo := make([]uint64, len(ops))
	// best is the argmax predecessor per op: its index in ops and the
	// index of the winning edge in Deps, or -1.
	bestOp := make([]int32, len(ops))
	bestDep := make([]int32, len(ops))

	var cp func(i int) uint64
	cp = func(i int) uint64 {
		switch state[i] {
		case known:
			return memo[i]
		case visiting:
			return ops[i].Total() // same-cycle tie loop: cut here
		}
		state[i] = visiting
		o := ops[i]
		v := o.Total()
		bestDep[i] = -1
		for k, d := range o.Deps {
			j := find(d.On)
			if j < 0 || ops[j].Finish > o.Finish {
				continue
			}
			c := cp(j) + uint64(o.Finish-ops[j].Finish)
			if c > v {
				v = c
				bestOp[i], bestDep[i] = int32(j), int32(k)
			}
		}
		state[i] = known
		memo[i] = v
		return v
	}

	var out Critical
	tail := -1
	for i := range ops {
		if v := cp(i); v > out.Cycles {
			out.Cycles = v
			tail = i
		}
	}
	for i := tail; i >= 0; {
		o := ops[i]
		step := PathStep{ID: o.ID, Kind: o.Kind.String(), Total: o.Total()}
		k := bestDep[i]
		if k >= 0 {
			step.Why = o.Deps[k].Why
		}
		out.Path = append(out.Path, step)
		out.Ops++
		if k < 0 || len(out.Path) > len(ops) {
			break
		}
		i = int(bestOp[i])
	}
	// Reverse to oldest-first.
	slices.Reverse(out.Path)
	return out
}

// WriteJSON writes the Summarize(topN) payload as indented JSON — the
// same bytes the /spans endpoint serves.
func (r *Recorder) WriteJSON(w io.Writer, topN int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Summarize(topN))
}

// WriteFolded emits collapsed-stack lines (`proto;kind;segment cycles`)
// aggregated over all finished spans, ready for flamegraph.pl /
// speedscope. Lines are sorted for byte-stable output.
func (r *Recorder) WriteFolded(w io.Writer, proto string) error {
	agg := make(map[string]uint64)
	for _, o := range r.Done() {
		for g, n := range o.Segs {
			if n != 0 {
				agg[fmt.Sprintf("%s;%s;%s", proto, o.Kind, Seg(g).Name())] += n
			}
		}
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s %d\n", k, agg[k]); err != nil {
			return err
		}
	}
	return nil
}

// Flow is the Perfetto flow-event form of one span: an arrow chain
// through the machine's existing tracks, one step per recorded mark.
type Flow struct {
	ID    uint64
	SM    int // issuing SM (the Perfetto thread the chain renders on)
	Name  string
	Steps []FlowStep
}

// FlowStep is one arrow anchor: the segment names the track the step
// belongs on; At is the cycle timestamp.
type FlowStep struct {
	Seg string
	At  uint64
}

// Flows exports finished spans as flow chains (issue anchor first,
// then every mark in arrival order). Spans with no marks are skipped.
func (r *Recorder) Flows() []Flow {
	ops := r.Done()
	out := make([]Flow, 0, len(ops))
	for _, o := range ops {
		if len(o.Marks) == 0 {
			continue
		}
		f := Flow{
			ID:    o.ID,
			SM:    o.SM,
			Name:  fmt.Sprintf("%s sm%d w%d line %#x", o.Kind, o.SM, o.Warp, o.Line),
			Steps: make([]FlowStep, 0, len(o.Marks)+1),
		}
		f.Steps = append(f.Steps, FlowStep{Seg: SegIssue.Name(), At: uint64(o.Issue)})
		for _, m := range o.Marks {
			f.Steps = append(f.Steps, FlowStep{Seg: m.Seg.Name(), At: uint64(m.At)})
		}
		out = append(out, f)
	}
	return out
}
