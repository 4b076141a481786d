// Explicit-state model checking of the protocol controllers.
//
// The differential fuzzer samples the interleaving space; ModelCheck
// exhausts it for small configurations, running the real machine — SMs,
// L1s, NoC, L2s, the actual MESI/TCS/RCC controller code — not an
// abstraction. Nondeterminism is confined to two controlled menus:
//
//   - each program thread's initial issue delay (which SM gets ahead);
//   - each NoC message's extra pipeline delay, chosen at Send time via
//     the network's DelayChooser hook (which messages get reordered).
//
// Given a full choice vector the machine is bit-deterministic, so one
// "state" of the explored transition system is a choice-vector prefix,
// and the checker is a replay-based DFS: run the machine from its initial
// state taking recorded choices along the prefix and the default (index
// 0) beyond it, and for every fresh decision point push the sibling
// prefixes onto a work stack. Every replay of one exploration runs on the
// same machine, returned to its initial state by sim.Machine.Reset, which
// keeps the machine's allocations where building one per replay would
// make the search allocation-bound.
// A visited-set over machine-state fingerprints (see fingerprintMachine)
// merges converging branches — chiefly siblings whose delay difference
// was absorbed by port-serialization backlog. Every initial delay
// assignment is explored: arbitration ties break by index, so the mirror
// image of an execution under a program automorphism need not be an
// execution of the machine.
// Only a fresh decision (past the replayed prefix, before any prune) can
// prune, so only those are fingerprinted, with a cheap 128-bit hash
// (hash128); the state graph, when recorded, fingerprints every decision
// and terminal for its node ids.
//
// Two properties are checked: every run must terminate cleanly with the
// trace.InvariantSink timestamp invariants intact, and every terminal
// observation outcome and final memory image must lie inside the exact
// SC set from Prog.Enumerate. The result carries the full observed
// outcome set, so a caller can additionally demand equality with the SC
// set (the cross-validation suite does).
package check

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// MCOptions configures one exhaustive exploration of one program under
// one protocol.
type MCOptions struct {
	Protocol config.Protocol

	// DelayMenu holds the initial issue-delay alternatives enumerated per
	// thread; index 0 is the default branch. The spread should exceed an
	// L1-miss round trip so "thread B issues after A's stores land" and
	// "before" are both explored.
	DelayMenu []uint32

	// JitterMenu holds the extra NoC pipeline-delay alternatives
	// enumerated per message send. The non-zero entries should exceed a
	// round trip so a delayed message can be overtaken by a full
	// request/response exchange.
	JitterMenu []uint64

	MaxCycles uint64 // per-run cycle cap (0 = config default)
	MaxRuns   int    // exploration cap; hitting it sets Truncated
	Graph     bool   // record the explored state graph
	Limits    EnumLimits

	// Progress, when set, is invoked after every run (from the calling
	// goroutine) — live gauges for /metrics.
	Progress func(MCProgress)
}

// DefaultMCOptions explores three relative issue positions per thread —
// immediate, one ~340-cycle miss round trip late, and late enough
// (1500 cycles) that a couple of cold misses on the other threads have
// fully drained first — and both "arrives promptly" / "overtaken by a
// round trip" deliveries per message.
func DefaultMCOptions() MCOptions {
	return MCOptions{
		Protocol:   config.RCC,
		DelayMenu:  []uint32{1, 420, 1500},
		JitterMenu: []uint64{0, 430},
		MaxCycles:  2_000_000,
		MaxRuns:    1 << 20,
		Graph:      true,
		Limits:     DefaultEnumLimits(),
	}
}

// LeaseWitnessProg is the pinned witness for the planted weaken-lease
// bug (core.WeakenLeaseCheckForTest): T0 publishes two lines while T1
// first primes an L1 lease on line 0, then — when its line-1 load is
// delayed past both stores — re-reads line 0 from the stale, weakened L1
// copy. SC forbids observing the second store but not the first from the
// same thread, so exhaustion provably corners the bug: a correct RCC
// build explores the identical space with zero violations.
func LeaseWitnessProg() *Prog {
	return &Prog{Lines: 2, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
			{Kind: workload.OpStore, Lines: []uint64{1}, Val: 2},
		}},
		{SM: 1, Warp: 0, Ops: []Op{
			{Kind: workload.OpLoad, Lines: []uint64{0}},
			{Kind: workload.OpLoad, Lines: []uint64{1}},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
	}}
}

// MCProgress is a live exploration snapshot.
type MCProgress struct {
	Runs     int // machine executions so far
	States   int // distinct machine-state fingerprints
	Frontier int // work-stack depth
	Depth    int // decision count of the latest run
}

// MCFailure is a property violation with its replay recipe.
type MCFailure struct {
	Failure *Failure `json:"failure"`
	Delays  []uint32 `json:"delays"`  // per-thread initial issue delays
	Jitter  []uint64 `json:"jitter"`  // per-send extra pipeline delays, send order
	Choices []uint8  `json:"choices"` // raw jitter-menu indices (replay vector)
}

func (f *MCFailure) String() string {
	return fmt.Sprintf("%v\n  delays=%v jitter=%v", f.Failure, f.Delays, f.Jitter)
}

// MCResult is the outcome of one exhaustive exploration.
type MCResult struct {
	Protocol string
	Runs     int
	States   int // distinct machine-state fingerprints visited
	MaxDepth int // longest decision vector of any run
	Failures int // property-violating terminals (runs, not states)

	// Outcomes maps every observation outcome seen at a well-shaped
	// terminal to the final-memory images seen with it. Always a subset
	// of the SC set unless Failure is non-nil; the cross-validation
	// suite additionally asserts equality.
	Outcomes map[string]map[string]bool

	// Failure is the shortest counterexample found (fewest decisions,
	// then lexicographically least choice vector), nil when every
	// terminal satisfied both properties.
	Failure *MCFailure

	// Truncated: MaxRuns was hit and the space is NOT exhausted.
	Truncated bool

	Graph *MCGraph // nil unless MCOptions.Graph
}

// mcRunOutcome is what one machine execution reports back to the driver.
type mcRunOutcome struct {
	taken    []uint8 // jitter choices actually made
	prunedAt int     // first fresh decision whose state was already visited; -1 if none
	fps      []mcFP  // state fingerprint before each decision, then the terminal's; graph only
	fail     *Failure
	outcome  string // canonical observation outcome ("" if shape failed)
	memk     string // final memory key
}

type mcDriver struct {
	// One runner, and so one machine, serves every replay of the
	// exploration: runOne resets it instead of building a new one.
	runner
	opts    MCOptions
	visited map[mcFP]bool
	res     *MCResult
	out     mcRunOutcome // the latest run's outcome, reused by the next

	// The current run's replayed choices, and decide bound once as the
	// machine's delay chooser, so a replay allocates no closure.
	prefix []uint8
	choose func() uint64

	// Scratch reused by every fingerprintMachine call, and the hash it
	// ends in: hash128, swapped only by tests that audit it.
	fpBuf []byte
	hash  func([]byte) mcFP

	pruned int // runs cut short at a visited state
}

const (
	mcRunSeed = 1   // labels failures; no model-checker run draws from a seed
	maxMenu   = 256 // menu length bound: choices are uint8 menu indices
)

// ModelCheck exhaustively explores prog under the options' protocol and
// choice menus. A non-nil error means the exploration could not run
// (ill-formed program, enumeration blow-up, machine build failure) — not
// a verdict.
func ModelCheck(p *Prog, opts MCOptions) (*MCResult, error) {
	d, err := newMCDriver(p, opts)
	if err != nil {
		return nil, err
	}
	return d.run()
}

// run performs the exploration newMCDriver set up.
func (d *mcDriver) run() (*MCResult, error) {
	// Root region: every per-thread delay-menu assignment, lex order.
	delayVec := make([]uint8, len(d.p.Threads))
	for {
		if err := d.explore(delayVec); err != nil {
			return nil, err
		}
		if d.res.Truncated {
			break
		}
		i := len(delayVec) - 1
		for ; i >= 0; i-- {
			// Compare before incrementing: index 255 of a full menu
			// would wrap to 0.
			if int(delayVec[i])+1 < len(d.opts.DelayMenu) {
				delayVec[i]++
				break
			}
			delayVec[i] = 0
		}
		if i < 0 {
			break
		}
	}
	d.res.States = len(d.visited)
	if d.res.Graph != nil {
		d.res.Graph.finalize()
	}
	return d.res, nil
}

// newMCDriver validates the menus, enumerates the SC set and sizes the
// machine for one exploration of p.
func newMCDriver(p *Prog, opts MCOptions) (*mcDriver, error) {
	switch {
	case len(opts.DelayMenu) == 0 || len(opts.JitterMenu) == 0:
		return nil, fmt.Errorf("check: empty model-checking menu")
	case len(opts.DelayMenu) > maxMenu || len(opts.JitterMenu) > maxMenu:
		return nil, fmt.Errorf("check: menus of %d delays and %d jitters, at most %d each",
			len(opts.DelayMenu), len(opts.JitterMenu), maxMenu)
	case slices.Max(opts.DelayMenu) > maxDelay || slices.Max(opts.JitterMenu) > maxDelay:
		return nil, fmt.Errorf("check: a menu entry exceeds %d cycles", maxDelay)
	}
	set, err := p.Enumerate(opts.Limits)
	if err != nil {
		return nil, err
	}
	d := &mcDriver{
		runner:  newRunner(p, set, opts.Protocol, opts.MaxCycles),
		opts:    opts,
		visited: make(map[mcFP]bool),
		hash:    hash128,
		res: &MCResult{
			Protocol: opts.Protocol.String(),
			Outcomes: make(map[string]map[string]bool),
		},
	}
	d.choose = d.decide
	if opts.Graph {
		d.res.Graph = newMCGraph(strings.ReplaceAll(strings.TrimSpace(p.String()), "\n", " "), d.res.Protocol)
	}
	return d, nil
}

// explore runs the jitter-choice DFS for one fixed delay assignment.
func (d *mcDriver) explore(delayVec []uint8) error {
	delays := make([]uint32, len(delayVec))
	for i, c := range delayVec {
		delays[i] = d.opts.DelayMenu[c]
	}
	wl, err := d.p.WorkloadDelays(d.cfg, delays)
	if err != nil {
		return err
	}
	delayNode := fmt.Sprintf("d:%v", delays)
	if g := d.res.Graph; g != nil {
		if g.addNode(delayNode, "delay") {
			g.addEdge("root", fmt.Sprintf("delays=%v", delays), delayNode)
		}
	}

	stack := [][]uint8{{}}
	for len(stack) > 0 {
		if d.opts.MaxRuns > 0 && d.res.Runs >= d.opts.MaxRuns {
			d.res.Truncated = true
			return nil
		}
		prefix := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		out, err := d.runOne(wl, prefix)
		if err != nil {
			return err
		}
		d.res.Runs++
		if len(out.taken) > d.res.MaxDepth {
			d.res.MaxDepth = len(out.taken)
		}
		d.record(out, delayVec, delays, delayNode)

		// Push sibling prefixes for every fresh, unpruned decision. The
		// push order (descending index, descending alternative) makes the
		// LIFO stack pop in ascending order; exploration order is fixed
		// either way, and the visited/outcome sets are order-independent.
		limit := len(out.taken)
		if out.prunedAt >= 0 {
			limit = out.prunedAt
			d.pruned++
		}
		// The run's siblings share one allocation; each is capped to its
		// own length, and a prefix is only ever read.
		size := 0
		for i := limit - 1; i >= len(prefix); i-- {
			size += (len(d.opts.JitterMenu) - 1) * (i + 1)
		}
		sibs := make([]uint8, 0, size)
		for i := limit - 1; i >= len(prefix); i-- {
			for alt := len(d.opts.JitterMenu) - 1; alt >= 1; alt-- {
				at := len(sibs)
				sibs = append(append(sibs, out.taken[:i]...), uint8(alt))
				stack = append(stack, sibs[at:len(sibs):len(sibs)])
			}
		}
		if d.opts.Progress != nil {
			d.opts.Progress(MCProgress{
				Runs:     d.res.Runs,
				States:   len(d.visited),
				Frontier: len(stack),
				Depth:    len(out.taken),
			})
		}
	}
	return nil
}

// runOne executes the machine once on wl (the program with this replay's
// issue delays): jitter choices replayed from prefix and defaulting to
// menu index 0 beyond it. The returned outcome is the driver's own and is
// overwritten by the next run.
func (d *mcDriver) runOne(wl *workload.Program, prefix []uint8) (*mcRunOutcome, error) {
	if err := d.machine(wl); err != nil {
		return nil, err
	}
	out := &d.out
	*out = mcRunOutcome{taken: out.taken[:0], prunedAt: -1, fps: out.fps[:0]}
	d.prefix = prefix
	d.m.SetNoCDelayChooser(d.choose)

	out.fail, out.outcome, out.memk = d.judge(mcRunSeed)
	// Terminal fingerprint for the graph (not a decision point, so not
	// in the pruning set), once the observations are well shaped.
	if d.res.Graph != nil && (out.fail == nil || out.fail.Kind == FailOutcome || out.fail.Kind == FailFinalMem) {
		out.fps = append(out.fps, d.fingerprintMachine())
	}
	return out, nil
}

// decide takes the current run's next jitter choice, replayed from
// d.prefix or the default beyond it, and prunes the run at a visited state.
func (d *mcDriver) decide() uint64 {
	out, prefix := &d.out, d.prefix
	i := len(out.taken)
	// A replayed decision's state is already visited (the run that pushed
	// this prefix passed it), and no sibling past a prune is ever pushed:
	// neither can prune, so only the graph needs their fingerprints.
	graph := d.res.Graph != nil
	if fresh := i >= len(prefix) && out.prunedAt < 0; fresh || graph {
		fp := d.fingerprintMachine()
		if graph {
			out.fps = append(out.fps, fp)
		}
		if fresh {
			if d.visited[fp] {
				out.prunedAt = i
			} else {
				d.visited[fp] = true
			}
		}
	}
	var c uint8
	if i < len(prefix) {
		c = prefix[i]
	}
	out.taken = append(out.taken, c)
	return d.opts.JitterMenu[c]
}

// record folds one run's terminal verdict and path into the result.
func (d *mcDriver) record(out *mcRunOutcome, delayVec []uint8, delays []uint32, delayNode string) {
	if out.fail != nil {
		d.res.Failures++
		cand := &MCFailure{Failure: out.fail, Delays: delays, Choices: append([]uint8(nil), out.taken...)}
		for _, c := range out.taken {
			cand.Jitter = append(cand.Jitter, d.opts.JitterMenu[c])
		}
		if better(cand, delayVec, d.res.Failure) {
			// Stash the delay choices in front for the comparison key.
			d.res.Failure = cand
		}
	} else {
		// A program with no loads legitimately has the empty outcome key.
		if d.res.Outcomes[out.outcome] == nil {
			d.res.Outcomes[out.outcome] = make(map[string]bool)
		}
		d.res.Outcomes[out.outcome][out.memk] = true
	}

	g := d.res.Graph
	if g == nil {
		return
	}
	prev := delayNode
	for i, fp := range out.fps {
		terminal := i == len(out.fps)-1
		var id, kind, label string
		if terminal {
			kind = "terminal-ok"
			if out.fail != nil {
				kind = "terminal-bad"
			}
			id = "t:" + fp.String()
		} else {
			kind = "state"
			id = "s:" + fp.String()
		}
		if i == 0 {
			label = "start"
		} else {
			label = fmt.Sprintf("j=%d", d.opts.JitterMenu[out.taken[i-1]])
		}
		if !g.addNode(id, kind) {
			return
		}
		g.addEdge(prev, label, id)
		prev = id
	}
}

// better reports whether candidate f (with its delay choice vector)
// beats the incumbent as the shortest counterexample: fewer decisions
// first, then lexicographically least (delays, choices) vector. The
// exploration is exhaustive, so the minimum is global and deterministic.
func better(f *MCFailure, delayVec []uint8, incumbent *MCFailure) bool {
	if incumbent == nil {
		return true
	}
	if len(f.Choices) != len(incumbent.Choices) {
		return len(f.Choices) < len(incumbent.Choices)
	}
	a := append(append([]uint32(nil), f.Delays...), widen(f.Choices)...)
	b := append(append([]uint32(nil), incumbent.Delays...), widen(incumbent.Choices)...)
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func widen(v []uint8) []uint32 {
	out := make([]uint32, len(v))
	for i, c := range v {
		out[i] = uint32(c)
	}
	return out
}

// OutcomesEqual compares an explored outcome set against the SC set and
// describes the first discrepancy ("" when they match exactly — every SC
// outcome/memory pair was produced by the machine and vice versa).
func OutcomesEqual(got map[string]map[string]bool, set *SCSet) string {
	var keys []string
	for k := range set.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] == nil {
			return fmt.Sprintf("SC outcome {%s} never produced by the machine", k)
		}
		for mem := range set.Outcomes[k] {
			if !got[k][mem] {
				return fmt.Sprintf("SC final memory [%s] with outcome {%s} never produced", mem, k)
			}
		}
	}
	keys = keys[:0]
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if set.Outcomes[k] == nil {
			return fmt.Sprintf("machine outcome {%s} outside the SC set", k)
		}
		for mem := range got[k] {
			if !set.Outcomes[k][mem] {
				return fmt.Sprintf("machine final memory [%s] with outcome {%s} outside the SC set", mem, k)
			}
		}
	}
	return ""
}
