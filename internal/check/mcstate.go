package check

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"rccsim/internal/coherence"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// mcFP is a 128-bit machine-state fingerprint (hash128 of the state
// image). The model checker never inverts fingerprints, so 128 bits keeps
// the visited set compact while making accidental collisions (an unsound
// merge) vanish below any practical exploration size.
type mcFP [16]byte

func (f mcFP) String() string { return fmt.Sprintf("%x", f[:8]) }

// fingerprintMachine digests everything the explored transition system
// distinguishes about a machine state at a decision point:
//
//   - the machine clock;
//   - every aggregate-statistics counter, as its nonzero leaves with
//     their indices (a running digest of the event history: message
//     counts per class, cache transitions, stall accounting — any
//     divergence in behaviour up to this point shows up in some counter);
//   - the program's shared-memory image;
//   - every observation recorded so far, as the recorder's sorted binary
//     entries behind their count (completion order carries no
//     information about future behaviour);
//   - the in-flight NoC delivery schedule: exact delivery cycle and full
//     payload of every undelivered message, in delivery order.
//
// Controller-internal microstate (MSHR entries, per-line FSM states,
// lease tables) is NOT serialized — the machine has no snapshot API (its
// Reset returns only to the initial state, which is why every branch is
// replayed from the root), and this is the standard hash-compaction
// trade: the fingerprint is a conservative history digest rather than a
// complete state encoding. The
// merge this is designed to catch is exact, though: two sibling choices
// whose jitter difference was absorbed by ejection-port backlog produce
// literally identical machines (same prefix, same delivery schedule, same
// counters), so pruning the second sibling loses nothing. Distinct
// histories colliding in every counter, the clock, memory, observations
// and the in-flight schedule simultaneously is the residual risk, and it
// is negligible at model-checking scales.
//
// decide calls it at every fresh decision (the only ones that can
// prune) and, while the graph is recorded, at every decision; runOne
// calls it at a terminal for the graph alone. The image is rendered into
// the driver's reused buffers and hashed in one call.
func (d *mcDriver) fingerprintMachine() mcFP {
	m, rec := d.m, d.rec
	le := binary.LittleEndian
	b := le.AppendUint64(d.fpBuf[:0], uint64(m.Now()))
	b = m.Stats().AppendNonzero(b)
	for l := 0; l < d.p.Lines; l++ {
		b = le.AppendUint64(b, m.ReadLine(Base+uint64(l)))
	}
	b = appendObs(b, rec.entries)
	m.FoldInflight(func(at timing.Cycle, msg *coherence.Msg) {
		atomic := uint64(0)
		if msg.Atomic {
			atomic = 1
		}
		for _, v := range [...]uint64{uint64(at), uint64(msg.Type), msg.Line,
			uint64(msg.Src), uint64(msg.Dst), msg.ReqID, uint64(msg.Warp),
			msg.Now, msg.Exp, msg.Ver, msg.Val, atomic} {
			b = le.AppendUint64(b, v)
		}
	})
	d.fpBuf = b
	return d.hash(b)
}

// hash128 is a deterministic 128-bit non-cryptographic hash: two 64-bit
// multiply-rotate lanes that each absorb one word of every 16-byte block
// and feed each other, the zero-padded tail and the length, then a
// full-avalanche finalizer per lane (the structure of MurmurHash3's
// x64_128 variant). On a 1.4 KB image it takes under a quarter of
// SHA-256's time, SHA-NI included (BenchmarkFingerprintHash), and
// TestMCHashMatchesReference checks it against SHA-256 on every image
// the pinned family's explorations produce.
func hash128(b []byte) mcFP {
	le := binary.LittleEndian
	n := uint64(len(b))
	var h1, h2 uint64
	for ; len(b) >= 16; b = b[16:] {
		h1, h2 = mix128(h1, h2, le.Uint64(b), le.Uint64(b[8:]))
	}
	if len(b) > 0 {
		var tail [16]byte
		copy(tail[:], b)
		h1, h2 = mix128(h1, h2, le.Uint64(tail[:]), le.Uint64(tail[8:]))
	}
	h1 ^= n
	h2 ^= n
	h1 += h2
	h2 += h1
	h1, h2 = fmix64(h1), fmix64(h2)
	h1 += h2
	h2 += h1
	var fp mcFP
	le.PutUint64(fp[:], h1)
	le.PutUint64(fp[8:], h2)
	return fp
}

// mix128 absorbs one 16-byte block (words k1, k2) into the two lanes.
func mix128(h1, h2, k1, k2 uint64) (uint64, uint64) {
	const c1, c2 = 0x87c37b91114253d5, 0x4cf5ad432745937f
	h1 ^= bits.RotateLeft64(k1*c1, 31) * c2
	h1 = (bits.RotateLeft64(h1, 27)+h2)*5 + 0x52dce729
	h2 ^= bits.RotateLeft64(k2*c2, 33) * c1
	h2 = (bits.RotateLeft64(h2, 31)+h1)*5 + 0x38495ab5
	return h1, h2
}

// fmix64 is MurmurHash3's 64-bit finalizer: every input bit flips each
// output bit with probability close to 1/2.
func fmix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// ---------------------------------------------------------------------
// Explored-graph export
// ---------------------------------------------------------------------

// MCGraphNode is one node of the exported state graph.
type MCGraphNode struct {
	ID   string `json:"id"`
	Kind string `json:"kind"` // "root", "delay", "state", "terminal-ok", "terminal-bad"
}

// MCGraphEdge is one transition: the choice taken at Src led to Dst.
type MCGraphEdge struct {
	Src    string `json:"src"`
	Choice string `json:"choice"` // human-readable label, e.g. "jit=430"
	Dst    string `json:"dst"`
}

// MCGraph is the deduplicated explored state graph, the protocol
// walkthrough artifact rcccheck exports as JSON and DOT.
type MCGraph struct {
	Program   string        `json:"program"`
	Protocol  string        `json:"protocol"`
	Nodes     []MCGraphNode `json:"nodes"`
	Edges     []MCGraphEdge `json:"edges"`
	Truncated bool          `json:"truncated"` // node cap hit; counts remain exact

	nodeSet map[string]string // id -> kind
	edgeSet map[string]bool
	cap     int
}

const mcGraphNodeCap = 5000

func newMCGraph(prog, proto string) *MCGraph {
	return &MCGraph{
		Program:  prog,
		Protocol: proto,
		nodeSet:  map[string]string{"root": "root"},
		edgeSet:  map[string]bool{},
		cap:      mcGraphNodeCap,
	}
}

func (g *MCGraph) addNode(id, kind string) bool {
	if prev, ok := g.nodeSet[id]; ok {
		// A terminal verdict upgrades a plain state node.
		if strings.HasPrefix(kind, "terminal") && !strings.HasPrefix(prev, "terminal") {
			g.nodeSet[id] = kind
		}
		return true
	}
	if len(g.nodeSet) >= g.cap {
		g.Truncated = true
		return false
	}
	g.nodeSet[id] = kind
	return true
}

func (g *MCGraph) addEdge(src, choice, dst string) {
	if _, ok := g.nodeSet[src]; !ok {
		return
	}
	if _, ok := g.nodeSet[dst]; !ok {
		return
	}
	g.edgeSet[src+"\x00"+choice+"\x00"+dst] = true
}

// finalize freezes the dedup sets into sorted slices (deterministic
// output byte-for-byte).
func (g *MCGraph) finalize() {
	g.Nodes = g.Nodes[:0]
	for id, kind := range g.nodeSet {
		g.Nodes = append(g.Nodes, MCGraphNode{ID: id, Kind: kind})
	}
	sort.Slice(g.Nodes, func(i, j int) bool { return g.Nodes[i].ID < g.Nodes[j].ID })
	g.Edges = g.Edges[:0]
	for e := range g.edgeSet {
		parts := strings.SplitN(e, "\x00", 3)
		g.Edges = append(g.Edges, MCGraphEdge{Src: parts[0], Choice: parts[1], Dst: parts[2]})
	}
	sort.Slice(g.Edges, func(i, j int) bool {
		a, b := g.Edges[i], g.Edges[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		return a.Choice < b.Choice
	})
}

// JSON renders the graph.
func (g *MCGraph) JSON() ([]byte, error) { return json.MarshalIndent(g, "", "  ") }

// DOT renders the graph as a Graphviz digraph; failing terminals are
// highlighted red.
func (g *MCGraph) DOT() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph mc {\n  rankdir=TB;\n  label=%q;\n  node [shape=box, fontsize=9];\n", g.Program+" / "+g.Protocol)
	for _, n := range g.Nodes {
		attr := ""
		switch n.Kind {
		case "root":
			attr = ", shape=circle, style=filled, fillcolor=gray"
		case "delay":
			attr = ", style=dashed"
		case "terminal-ok":
			attr = ", style=filled, fillcolor=palegreen"
		case "terminal-bad":
			attr = ", style=filled, fillcolor=salmon, penwidth=2"
		}
		fmt.Fprintf(&b, "  %q [label=%q%s];\n", n.ID, n.ID, attr)
	}
	for _, e := range g.Edges {
		fmt.Fprintf(&b, "  %q -> %q [label=%q, fontsize=8];\n", e.Src, e.Dst, e.Choice)
	}
	b.WriteString("}\n")
	return b.String()
}

// ---------------------------------------------------------------------
// Symmetry: canonical programs and automorphism-pruned delay vectors
// ---------------------------------------------------------------------

// serializeProg renders a program as a canonical comparison string:
// threads sorted by placement, store/atomic values renumbered in
// first-appearance order so value identity never distinguishes two
// structurally identical programs. Thread T at SM s, warp w renders as
// "Ts.w:" and then one entry per operation, each ended by ';': "L[l ...]"
// for a load of its sorted lines, "S[l ...]=n" and "A[l ...]=n" for a
// store and an atomic of renumbered value n, "B", "F", or "C<lat>"; each
// thread ends with '|'.
func serializeProg(p *Prog) string {
	idx := make([]int, len(p.Threads))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := p.Threads[idx[a]], p.Threads[idx[b]]
		if ta.SM != tb.SM {
			return ta.SM < tb.SM
		}
		return ta.Warp < tb.Warp
	})
	ren := map[uint64]int{}
	var lines []uint64
	b := make([]byte, 0, 128)
	for _, ti := range idx {
		th := p.Threads[ti]
		b = append(b, 'T')
		b = strconv.AppendInt(b, int64(th.SM), 10)
		b = append(b, '.')
		b = strconv.AppendInt(b, int64(th.Warp), 10)
		b = append(b, ':')
		for _, op := range th.Ops {
			lines = append(lines[:0], op.Lines...)
			slices.Sort(lines)
			switch op.Kind {
			case workload.OpLoad:
				b = appendLineList(append(b, 'L'), lines)
			case workload.OpStore, workload.OpAtomic:
				if _, ok := ren[op.Val]; !ok {
					ren[op.Val] = len(ren) + 1
				}
				k := byte('S')
				if op.Kind == workload.OpAtomic {
					k = 'A'
				}
				b = appendLineList(append(b, k), lines)
				b = strconv.AppendInt(append(b, '='), int64(ren[op.Val]), 10)
			case workload.OpBarrier:
				b = append(b, 'B')
			case workload.OpFence:
				b = append(b, 'F')
			case workload.OpCompute:
				b = strconv.AppendUint(append(b, 'C'), uint64(op.Lat), 10)
			}
			b = append(b, ';')
		}
		b = append(b, '|')
	}
	return string(b)
}

// appendLineList appends lines as "[l0 l1 ...]".
func appendLineList(b []byte, lines []uint64) []byte {
	b = append(b, '[')
	for i, l := range lines {
		if i > 0 {
			b = append(b, ' ')
		}
		b = strconv.AppendUint(b, l, 10)
	}
	return append(b, ']')
}

// applySym returns the program with SM indices permuted by smPerm and
// line indices by linePerm, threads re-sorted by new placement.
func applySym(p *Prog, smPerm, linePerm []int) *Prog {
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

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	var rec func(cur []int, used []bool)
	rec = func(cur []int, used []bool) {
		if len(cur) == n {
			out = append(out, append([]int(nil), cur...))
			return
		}
		for i := 0; i < n; i++ {
			if !used[i] {
				used[i] = true
				rec(append(cur, i), used)
				used[i] = false
			}
		}
	}
	rec(nil, make([]bool, n))
	return out
}

// symShape returns the SM and line counts the symmetry group ranges over.
func symShape(p *Prog) (sms, lines int) {
	for _, th := range p.Threads {
		if th.SM+1 > sms {
			sms = th.SM + 1
		}
	}
	return sms, p.Lines
}

// CanonicalProg reports whether p is the canonical representative of its
// orbit under SM renaming × line renaming (store values compared under
// first-appearance renumbering). rcccheck enumerates whole program
// families and checks only representatives; the machine is symmetric
// under these renamings up to index-ordered arbitration ties, which
// TestMCSymmetryEmpirical validates on the explored scale.
func CanonicalProg(p *Prog) bool {
	self := serializeProg(p)
	sms, lines := symShape(p)
	for _, sp := range permutations(sms) {
		for _, lp := range permutations(lines) {
			if s := serializeProg(applySym(p, sp, lp)); s < self {
				return false
			}
		}
	}
	return true
}

// symAction is one program automorphism — an (SM perm × line perm) pair
// mapping p to itself up to store-value renumbering — expressed as its
// action on executions: thread i's behaviour appears as thread
// threadPerm[i]'s, line l's contents appear at linePerm[l], and store
// value v appears as valMap[v].
type symAction struct {
	threadPerm []int
	linePerm   []int
	valMap     map[uint64]uint64
}

// progAutomorphisms returns every automorphism action of p. Delay
// vectors related by a threadPerm explore equivalent executions (up to
// index-ordered arbitration ties), and the outcome set of a
// symmetry-pruned exploration is recovered by closing under these
// actions (closeOutcomes).
func progAutomorphisms(p *Prog) []symAction {
	self := serializeProg(p)
	sms, lines := symShape(p)
	// rankIdx[r] = index of the thread at placement rank r; pos inverts.
	type slot struct{ sm, warp int }
	pos := map[slot]int{}
	rankIdx := make([]int, len(p.Threads))
	{
		idx := make([]int, len(p.Threads))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool {
			ta, tb := p.Threads[idx[a]], p.Threads[idx[b]]
			if ta.SM != tb.SM {
				return ta.SM < tb.SM
			}
			return ta.Warp < tb.Warp
		})
		for rank, ti := range idx {
			pos[slot{p.Threads[ti].SM, p.Threads[ti].Warp}] = rank
			rankIdx[rank] = ti
		}
	}
	seen := map[string]bool{}
	var out []symAction
	for _, sp := range permutations(sms) {
		for _, lp := range permutations(lines) {
			if serializeProg(applySym(p, sp, lp)) != self {
				continue
			}
			perm := make([]int, len(p.Threads))
			for ti, th := range p.Threads {
				perm[ti] = rankIdx[pos[slot{sp[th.SM], th.Warp}]]
			}
			key := fmt.Sprint(perm, lp)
			if seen[key] {
				continue
			}
			seen[key] = true
			// The renumbering match guarantees thread perm[ti] carries the
			// same op shapes as ti; its values are where ti's values appear
			// after the renaming.
			vm := map[uint64]uint64{}
			ok := true
			for ti, th := range p.Threads {
				img := p.Threads[perm[ti]]
				if len(img.Ops) != len(th.Ops) {
					ok = false
					break
				}
				for oi, op := range th.Ops {
					if op.Val != 0 {
						vm[op.Val] = img.Ops[oi].Val
					}
				}
			}
			if ok {
				out = append(out, symAction{threadPerm: perm, linePerm: lp, valMap: vm})
			}
		}
	}
	return out
}

// closeOutcomes closes an explored outcome→memories set under the
// automorphism actions: an execution pruned by delay-vector symmetry
// exists as the image of an explored one, so its (renamed) outcome and
// final memory are added back here. The actions form a group, so one
// pass over the recorded set yields the full orbit.
func closeOutcomes(outcomes map[string]map[string]bool, autos []symAction) {
	type pair struct{ out, mem string }
	var base []pair
	for out, mems := range outcomes {
		for mem := range mems {
			base = append(base, pair{out, mem})
		}
	}
	for _, a := range autos {
		for _, pr := range base {
			out := applySymOutcome(pr.out, a)
			mem := applySymMem(pr.mem, a)
			if outcomes[out] == nil {
				outcomes[out] = make(map[string]bool)
			}
			outcomes[out][mem] = true
		}
	}
}

func (a symAction) val(v uint64) uint64 {
	if v == 0 {
		return 0
	}
	if w, ok := a.valMap[v]; ok {
		return w
	}
	return v
}

// applySymOutcome maps a canonical outcome key through an automorphism.
func applySymOutcome(outcome string, a symAction) string {
	if outcome == "" {
		return ""
	}
	entries := strings.Split(outcome, ";")
	mapped := make([]string, 0, len(entries))
	for _, e := range entries {
		var ti, opIdx int
		var line, val uint64
		if _, err := fmt.Sscanf(e, "T%d#%d@%d=%d", &ti, &opIdx, &line, &val); err != nil {
			return outcome // unparseable: leave untouched
		}
		mapped = append(mapped, ObsKey(a.threadPerm[ti], opIdx, uint64(a.linePerm[line]), a.val(val)))
	}
	return CanonOutcome(mapped)
}

// applySymMem maps a final-memory key through an automorphism.
func applySymMem(mem string, a symAction) string {
	parts := strings.Split(mem, ",")
	out := make([]uint64, len(parts))
	for l, s := range parts {
		var v uint64
		if _, err := fmt.Sscanf(s, "%d", &v); err != nil {
			return mem
		}
		out[a.linePerm[l]] = a.val(v)
	}
	return memKey(out)
}

// delayOrbitMinimal reports whether the per-thread delay index vector v
// is the lexicographically minimal member of its orbit under the
// automorphisms' thread permutations — the symmetry-reduction filter
// over root delay assignments.
func delayOrbitMinimal(v []uint8, autos []symAction) bool {
	for _, a := range autos {
		for i := range v {
			pv := v[a.threadPerm[i]]
			if pv < v[i] {
				return false
			}
			if pv > v[i] {
				break
			}
		}
	}
	return true
}

// ---------------------------------------------------------------------
// Program-family enumeration
// ---------------------------------------------------------------------

// FamilyShape describes one small-config program family for exhaustive
// checking: every well-formed straight-line program with smsUsed SMs ×
// warpsPerSM threads each, exactly opsPerThread single-line loads/stores
// (plus fetch-and-adds when atomics is set) over lines shared lines.
type FamilyShape struct {
	SMs, WarpsPerSM, OpsPerThread, Lines int
	Atomics                              bool
}

func (s FamilyShape) String() string {
	a := ""
	if s.Atomics {
		a = "+atom"
	}
	return fmt.Sprintf("%dsm x %dw x %dop, %d lines%s", s.SMs, s.WarpsPerSM, s.OpsPerThread, s.Lines, a)
}

// EnumFamily generates the family, filtered to canonical representatives
// under SM × line renaming. Store values are numbered 1..N in (thread,
// op) order, so each structural choice yields exactly one program.
func EnumFamily(s FamilyShape) []*Prog {
	threads := s.SMs * s.WarpsPerSM
	kinds := []workload.OpKind{workload.OpLoad, workload.OpStore}
	if s.Atomics {
		kinds = append(kinds, workload.OpAtomic)
	}
	// One op choice = (kind, line).
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
		if p.WellFormed() == nil && CanonicalProg(p) {
			out = append(out, p)
		}
		// Odometer increment.
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
