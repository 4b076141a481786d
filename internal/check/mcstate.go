package check

import (
	"bytes"
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
// Symmetry: canonical programs
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
	var c canonicaliser
	return string(c.appendImage(nil, p, nil, nil))
}

// canonicaliser serialises the images of programs under SM and line
// renamings (symmetric images) without building them, in reused buffers.
// Its permutations are those of one shape (symShape).
type canonicaliser struct {
	smPerms, linePerms [][]int
	self, img          []byte
	order              []int    // image thread order: program thread indices
	vals               []uint64 // store values in first-appearance order
	lines              []uint64 // one op's image lines
}

func newCanonicaliser(sms, lines int) *canonicaliser {
	return &canonicaliser{smPerms: permutations(sms), linePerms: permutations(lines)}
}

// appendImage appends serializeProg's text of p with SM s renamed to
// sp[s] and line l to lp[l] (nil: unchanged) — the image's threads sorted
// by their new placement, its lines sorted per op, its values renumbered
// in the image's own first-appearance order.
func (c *canonicaliser) appendImage(b []byte, p *Prog, sp, lp []int) []byte {
	sm := func(s int) int {
		if sp == nil {
			return s
		}
		return sp[s]
	}
	c.order = c.order[:0]
	for ti, th := range p.Threads {
		c.order = append(c.order, ti)
		for i := len(c.order) - 1; i > 0; i-- {
			prev := p.Threads[c.order[i-1]]
			if ps := sm(prev.SM); ps < sm(th.SM) || ps == sm(th.SM) && prev.Warp <= th.Warp {
				break
			}
			c.order[i-1], c.order[i] = c.order[i], c.order[i-1]
		}
	}
	c.vals = c.vals[:0]
	for _, ti := range c.order {
		th := p.Threads[ti]
		b = append(strconv.AppendInt(append(b, 'T'), int64(sm(th.SM)), 10), '.')
		b = append(strconv.AppendInt(b, int64(th.Warp), 10), ':')
		for _, op := range th.Ops {
			c.lines = c.lines[:0]
			for _, l := range op.Lines {
				if lp != nil {
					l = uint64(lp[l])
				}
				c.lines = append(c.lines, l)
			}
			slices.Sort(c.lines)
			switch op.Kind {
			case workload.OpLoad:
				b = appendLineList(append(b, 'L'), c.lines)
			case workload.OpStore, workload.OpAtomic:
				n := slices.Index(c.vals, op.Val) + 1
				if n == 0 {
					c.vals = append(c.vals, op.Val)
					n = len(c.vals)
				}
				k := byte('S')
				if op.Kind == workload.OpAtomic {
					k = 'A'
				}
				b = appendLineList(append(b, k), c.lines)
				b = strconv.AppendInt(append(b, '='), int64(n), 10)
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
	return b
}

// canonical reports whether no symmetric image of p serialises before p
// itself (CanonicalProg).
func (c *canonicaliser) canonical(p *Prog) bool {
	c.self = c.appendImage(c.self[:0], p, nil, nil)
	for _, sp := range c.smPerms {
		for _, lp := range c.linePerms {
			c.img = c.appendImage(c.img[:0], p, sp, lp)
			if bytes.Compare(c.img, c.self) < 0 {
				return false
			}
		}
	}
	return true
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
// first-appearance renumbering): no image serialises before p.
// rcccheck enumerates whole program families and checks only
// representatives. The machine is symmetric under these renamings only
// up to index-ordered arbitration ties, so a representative's outcome set
// can differ from a renamed image's: TestFamilyReductionLoss explores all
// 256 raw programs of rcccheck's default family under MESI, TCS and RCC
// and pins the loss per protocol: 2 pairs that raw programs reach and
// their representatives lack, 8 the other way, and no verdict changed.
func CanonicalProg(p *Prog) bool {
	return newCanonicaliser(symShape(p)).canonical(p)
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

// maxFamilyCandidates bounds the candidate programs EnumFamily builds,
// and maxFamilyGroup the SM × line renamings (SMs! · Lines!) its
// canonicaliser tabulates: past either, enumeration runs for hours or
// exhausts memory (12 lines alone is 479M renamings). The families
// rcccheck is run on (up to 4 SMs × 2 ops or 2 SMs × 3 ops, with
// atomics) stay well below both.
const (
	maxFamilyCandidates = 1 << 24
	maxFamilyGroup      = 40320 // 8!
)

// Validate reports why EnumFamily cannot enumerate s: a count below 1,
// one past the cap WellFormed puts on every program (lines, SM and warp
// indices, ops per thread), which would leave no program to keep, or a
// family too large to enumerate.
func (s FamilyShape) Validate() error {
	for _, c := range []struct {
		name     string
		n, limit int
	}{
		{"SMs", s.SMs, placeCap},
		{"warps per SM", s.WarpsPerSM, placeCap},
		{"ops per thread", s.OpsPerThread, opCap},
		{"lines", s.Lines, lineCap},
	} {
		if c.n < 1 || c.n > c.limit {
			return fmt.Errorf("check: family of %d %s, want 1..%d", c.n, c.name, c.limit)
		}
	}
	menu := 2 * s.Lines
	if s.Atomics {
		menu = 3 * s.Lines
	}
	for i, n := 0, 1; i < s.SMs*s.WarpsPerSM*s.OpsPerThread; i++ {
		if n *= menu; n > maxFamilyCandidates {
			return fmt.Errorf("check: family %v has over %d candidate programs", s, maxFamilyCandidates)
		}
	}
	g := 1
	for _, n := range []int{s.SMs, s.Lines} {
		for i := 2; i <= n; i++ {
			if g *= i; g > maxFamilyGroup {
				return fmt.Errorf("check: family %v has over %d SM × line renamings", s, maxFamilyGroup)
			}
		}
	}
	return nil
}

// EnumFamily generates the family, filtered to canonical representatives
// under SM × line renaming; a shape Validate rejects has none. It
// collects what EachFamily yields.
func EnumFamily(s FamilyShape) []*Prog {
	var out []*Prog
	EachFamily(s, func(p *Prog) bool {
		out = append(out, p.Clone())
		return true
	})
	return out
}

// EachFamily calls yield with each canonical representative of the
// family, in EnumFamily's order, until yield returns false; a shape
// Validate rejects has none. Store values are numbered 1..N in (thread,
// op) order, so each structural choice yields exactly one program. Every
// candidate is built in one reused program: yield must Clone p to keep
// it past the call.
func EachFamily(s FamilyShape, yield func(p *Prog) bool) {
	if s.Validate() != nil {
		return
	}
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
	cand := &Prog{Lines: s.Lines, Threads: make([]Thread, threads)}
	ops := make([]Op, slots)
	lines := make([]uint64, slots)
	for ti := range cand.Threads {
		cand.Threads[ti] = Thread{SM: ti / s.WarpsPerSM, Warp: ti % s.WarpsPerSM,
			Ops: ops[ti*s.OpsPerThread : (ti+1)*s.OpsPerThread : (ti+1)*s.OpsPerThread]}
	}
	var canon *canonicaliser
	pick := make([]int, slots)
	for {
		val := uint64(0)
		for i, c := range pick {
			lines[i] = menu[c].line
			ops[i] = Op{Kind: menu[c].kind, Lines: lines[i : i+1 : i+1]}
			if menu[c].kind != workload.OpLoad {
				val++
				ops[i].Val = val
			}
		}
		if cand.WellFormed() == nil {
			if canon == nil {
				canon = newCanonicaliser(symShape(cand))
			}
			if canon.canonical(cand) && !yield(cand) {
				return
			}
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
			return
		}
	}
}
