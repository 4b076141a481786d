package check

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/sc"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// sb is store buffering with the two writers on separate SMs.
func sb() *Prog {
	return litmusToProg(uniquifyVals(sc.StoreBuffering()), 2)
}

// mcQuick returns graph-free options for one protocol.
func mcQuick(p config.Protocol) MCOptions {
	opts := DefaultMCOptions()
	opts.Protocol = p
	opts.Graph = false
	return opts
}

var mcProtocols = []config.Protocol{config.MESI, config.TCS, config.RCC}

// TestMCCrossValidation is the equality suite: on these programs the
// exhaustive exploration must produce EXACTLY the SC outcome set from
// Prog.Enumerate — every SC outcome and final-memory pair reached by the
// machine, nothing outside it — under every protocol. The programs are
// pinned to ones whose SC outcomes are all reachable under the default
// delay/jitter menus (see the coverage-gap discussion in EXPERIMENTS.md);
// everything here is deterministic, so this cannot flake.
func TestMCCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive explorations in -short mode")
	}
	progs := []struct {
		name string
		p    *Prog
		// subsetOnly marks (program, protocol) cells where a known SC
		// outcome is unreachable under the default menus — for
		// LeaseWitness under RCC, reading line1=0 between two reads of
		// line 0 that straddle the store needs the invalidation to land
		// inside a ~2-cycle window the coarse menus cannot align, and
		// RCC's lease logical-time ordering narrows it further. Soundness
		// (subset + no violation) still holds; see EXPERIMENTS.md.
		subsetOnly map[config.Protocol]bool
	}{
		{"MP", mp(), nil},
		{"SB", sb(), nil},
		{"LeaseWitness", LeaseWitnessProg(), map[config.Protocol]bool{config.RCC: true}},
	}
	for _, tc := range progs {
		set, err := tc.p.Enumerate(DefaultEnumLimits())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, proto := range mcProtocols {
			res, err := ModelCheck(tc.p, mcQuick(proto))
			if err != nil {
				t.Fatalf("%s under %s: %v", tc.name, proto, err)
			}
			if res.Failure != nil {
				t.Fatalf("%s under %s: unexpected violation: %v", tc.name, proto, res.Failure)
			}
			if res.Truncated {
				t.Fatalf("%s under %s: truncated at %d runs", tc.name, proto, res.Runs)
			}
			if tc.subsetOnly[proto] {
				// Failure==nil already proves every terminal lies inside
				// the SC set; just confirm the exploration was nontrivial.
				if len(res.Outcomes) < 2 {
					t.Fatalf("%s under %s: only %d outcomes reached", tc.name, proto, len(res.Outcomes))
				}
				t.Logf("%s under %s: %d runs, %d states, %d outcomes — SC subset (known gap)",
					tc.name, proto, res.Runs, res.States, len(res.Outcomes))
				continue
			}
			if gap := OutcomesEqual(res.Outcomes, set); gap != "" {
				t.Fatalf("%s under %s: %s\n%s", tc.name, proto, gap, tc.p)
			}
			t.Logf("%s under %s: %d runs, %d states, depth %d, %d outcomes — exact SC match",
				tc.name, proto, res.Runs, res.States, res.MaxDepth, len(res.Outcomes))
		}
	}
}

// TestMCAgreesWithSCOutcomes triangulates three independent
// implementations on message passing: the machine's explored outcome set
// (ModelCheck), this package's enumerator (Prog.Enumerate, already
// asserted equal above), and the sc package's standalone SCOutcomes
// interleaver, mapped across outcome formats.
func TestMCAgreesWithSCOutcomes(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive explorations in -short mode")
	}
	for _, l := range []sc.Litmus{sc.MessagePassing(), sc.StoreBuffering()} {
		l = uniquifyVals(l)
		want := sc.SCOutcomes(l)
		p := litmusToProg(l, 2)

		res, err := ModelCheck(p, mcQuick(config.RCC))
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if res.Failure != nil {
			t.Fatalf("%s: unexpected violation: %v", l.Name, res.Failure)
		}

		// Map sc's slot-ordered outcomes into this package's keyed form.
		type slot struct {
			tid, idx int
			line     uint64
		}
		var slots []slot
		for tid, ops := range l.Threads {
			for i, op := range ops {
				if !op.Store {
					slots = append(slots, slot{tid, i, op.Line})
				}
			}
		}
		wantKeys := make(map[string]bool, len(want))
		for out := range want {
			vals := splitOutcome(string(out))
			if len(vals) != len(slots) {
				t.Fatalf("%s: outcome %q has %d values, want %d", l.Name, out, len(vals), len(slots))
			}
			entries := make([]string, len(slots))
			for k, s := range slots {
				entries[k] = ObsKey(s.tid, s.idx, s.line, vals[k])
			}
			wantKeys[CanonOutcome(entries)] = true
		}
		gotKeys := make(map[string]bool, len(res.Outcomes))
		for out := range res.Outcomes {
			gotKeys[out] = true
		}
		if !reflect.DeepEqual(wantKeys, gotKeys) {
			t.Fatalf("%s: machine and sc.SCOutcomes disagree\n sc: %v\n machine: %v",
				l.Name, wantKeys, gotKeys)
		}
	}
}

// TestMCRandomLitmusCrossValidation extends the equality suite with
// pinned randomly generated programs (timing.NewRNG is deterministic, so
// these are fixed programs — the trials skipped below have SC outcomes
// that need timing alignments outside the default menus; coverage, not
// soundness). All run under RCC, the protocol whose SC argument is the
// paper's contribution.
func TestMCRandomLitmusCrossValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive explorations in -short mode")
	}
	check := func(name string, p *Prog) {
		t.Helper()
		set, err := p.Enumerate(DefaultEnumLimits())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := ModelCheck(p, mcQuick(config.RCC))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Failure != nil {
			t.Fatalf("%s: unexpected violation: %v\n%s", name, res.Failure, p)
		}
		if gap := OutcomesEqual(res.Outcomes, set); gap != "" {
			t.Fatalf("%s: %s\n%s", name, gap, p)
		}
		t.Logf("%s: %d runs, %d states — exact SC match", name, res.Runs, res.States)
	}

	rng := timing.NewRNG(77)
	for trial := 0; trial < 6; trial++ {
		l := sc.RandomLitmus(rng, 3, 2, 2)
		if trial == 2 || trial == 5 {
			check("seed77/trial"+string(rune('0'+trial)), litmusToProg(uniquifyVals(l), 2))
		}
	}
	rng = timing.NewRNG(1234)
	check("seed1234/trial0", litmusToProg(uniquifyVals(sc.RandomLitmus(rng, 2, 3, 2)), 2))
}

// TestMCMutationSelfTest proves exhaustion finds a planted protocol bug:
// with every L1 lease check weakened (expired leases stay readable —
// disabling the mechanism RCC's SC argument rests on), exploring the
// pinned witness program MUST surface an SC violation, with a complete
// shortest-counterexample replay recipe. Removing the bug and exploring
// the identical space must come back clean. This is the same planted bug
// the fuzzer's TestMutationSelfTest hunts statistically; here the claim
// is stronger — the violation is found by exhaustion, and its absence
// afterwards means no violation EXISTS below this size under the menus.
func TestMCMutationSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive explorations in -short mode")
	}
	p := LeaseWitnessProg()
	opts := mcQuick(config.RCC)

	restore := core.WeakenLeaseCheckForTest(1 << 40)
	res, err := ModelCheck(p, opts)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatalf("planted lease bug not found by exhaustion (%d runs, %d states)", res.Runs, res.States)
	}
	if res.Failures == 0 {
		t.Fatal("Failure set but Failures count is zero")
	}
	f := res.Failure
	if f.Failure.Kind != FailOutcome {
		t.Fatalf("counterexample kind %v, want %v (an SC outcome violation)", f.Failure.Kind, FailOutcome)
	}
	if len(f.Delays) != len(p.Threads) {
		t.Fatalf("counterexample has %d delays for %d threads", len(f.Delays), len(p.Threads))
	}
	if len(f.Jitter) != len(f.Choices) {
		t.Fatalf("counterexample jitter/choices length mismatch: %d vs %d", len(f.Jitter), len(f.Choices))
	}
	// The stale re-read of line 0 is the signature: T1's third load sees 0
	// after its second load saw the later store's value.
	if !strings.Contains(f.Failure.Detail, "T1#2@0=0") {
		t.Errorf("counterexample does not show the stale lease re-read: %v", f)
	}
	t.Logf("planted bug cornered: %d of %d runs violating; shortest counterexample: %v", res.Failures, res.Runs, f)

	clean, err := ModelCheck(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Failure != nil {
		t.Fatalf("violation persists after removing the planted bug: %v", clean.Failure)
	}
	if clean.Failures != 0 {
		t.Fatalf("%d violating runs after removing the planted bug", clean.Failures)
	}
}

// TestMCDeterministicStateCounts pins run-to-run determinism: two
// explorations of the same program must agree on every count and on the
// full outcome set. CI asserts the same property end-to-end by diffing
// rcccheck summary lines.
func TestMCDeterministicStateCounts(t *testing.T) {
	p := mp()
	opts := mcQuick(config.RCC)
	a, err := ModelCheck(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ModelCheck(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Runs != b.Runs || a.States != b.States || a.MaxDepth != b.MaxDepth || a.Failures != b.Failures {
		t.Fatalf("exploration not deterministic: (%d,%d,%d,%d) vs (%d,%d,%d,%d)",
			a.Runs, a.States, a.MaxDepth, a.Failures, b.Runs, b.States, b.MaxDepth, b.Failures)
	}
	if !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Fatalf("outcome sets differ across identical explorations:\n%v\n%v", a.Outcomes, b.Outcomes)
	}
	if a.Runs == 0 || a.States == 0 {
		t.Fatalf("degenerate exploration: %d runs, %d states", a.Runs, a.States)
	}
}

// TestMCSymmetryEmpirical validates the symmetry reduction empirically
// under RCC, on store buffering and on every program of the pinned
// 72-program family with a nontrivial automorphism (thread swaps with
// line and value renaming): the pruned exploration must reach the same
// verdict as the full one in fewer or equal runs, and its closed outcome
// set must equal the full one's. The machine is symmetric only up to
// index-ordered arbitration ties, so on two family programs the closure
// adds the image of a pair whose mirror the full exploration never
// produced: each of those gains exactly one pair, which must be SC.
func TestMCSymmetryEmpirical(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive explorations in -short mode")
	}
	if len(progAutomorphisms(sb())) < 2 {
		t.Fatal("SB has no nontrivial automorphism; symmetry test is vacuous")
	}
	type symCase struct {
		name string
		p    *Prog
	}
	cases := []symCase{{"SB", sb()}}
	for i, p := range EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2}) {
		if len(progAutomorphisms(p)) >= 2 {
			cases = append(cases, symCase{fmt.Sprintf("family[%d]", i), p})
		}
	}
	if len(cases) != 17 {
		t.Fatalf("%d family programs have a nontrivial automorphism, want 16", len(cases)-1)
	}
	// The programs, by EnumFamily index, whose closed set holds one SC
	// pair more than the full exploration reached.
	wider := map[string]bool{"family[52]": true, "family[70]": true}
	on := mcQuick(config.RCC)
	off := mcQuick(config.RCC)
	off.Symmetry = false
	pruned, full := 0, 0
	for _, c := range cases {
		ra, err := ModelCheck(c.p, on)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := ModelCheck(c.p, off)
		if err != nil {
			t.Fatal(err)
		}
		if (ra.Failure == nil) != (rb.Failure == nil) {
			t.Fatalf("%s: symmetry changed the verdict: %v vs %v\n%s", c.name, ra.Failure, rb.Failure, c.p)
		}
		if ra.Runs > rb.Runs {
			t.Fatalf("%s: symmetry pruning ran MORE executions: %d vs %d\n%s", c.name, ra.Runs, rb.Runs, c.p)
		}
		pruned += ra.Runs
		full += rb.Runs
		if !wider[c.name] {
			if !reflect.DeepEqual(ra.Outcomes, rb.Outcomes) {
				t.Fatalf("%s: closed outcome set differs from the full one:\n pruned: %v\n full: %v\n%s", c.name, ra.Outcomes, rb.Outcomes, c.p)
			}
			continue
		}
		for out, mems := range rb.Outcomes {
			for mem := range mems {
				if !ra.Outcomes[out][mem] {
					t.Fatalf("%s: symmetry closure lost {%s} [%s]:\n pruned: %v\n full: %v\n%s", c.name, out, mem, ra.Outcomes, rb.Outcomes, c.p)
				}
			}
		}
		set, err := c.p.Enumerate(DefaultEnumLimits())
		if err != nil {
			t.Fatal(err)
		}
		extra := 0
		for out, mems := range ra.Outcomes {
			for mem := range mems {
				if rb.Outcomes[out][mem] {
					continue
				}
				if !set.AllowsFinal(out, mem) {
					t.Fatalf("%s: symmetry closure added the non-SC pair {%s} [%s]\n%s", c.name, out, mem, c.p)
				}
				extra++
			}
		}
		if extra != 1 {
			t.Fatalf("%s: closure added %d pairs, want 1\n%s", c.name, extra, c.p)
		}
	}
	t.Logf("symmetry: %d programs, %d runs pruned vs %d full", len(cases), pruned, full)
}

// TestCloseOutcomesParses: closeOutcomes maps outcome and memory keys as
// numbers, so a key it cannot parse panics instead of passing through
// unmapped, and parsing inverts rendering.
func TestCloseOutcomesParses(t *testing.T) {
	for _, out := range []string{"", "T0#1@0=5", "T1#0@1=2;T1#1@0=0;T10#3@12=18446744073709551615"} {
		o := parseOutcome(out)
		keys := make([]string, len(o))
		for i, e := range o {
			keys[i] = ObsKey(int(e.ti), int(e.op), e.line, e.val)
		}
		if got := CanonOutcome(keys); got != out {
			t.Fatalf("parseOutcome(%q) renders back as %q", out, got)
		}
	}
	if got := memKey(parseMem("0,12,3")); got != "0,12,3" {
		t.Fatalf("parseMem renders back as %q", got)
	}
	swap := []symAction{{threadPerm: []int{1, 0}, linePerm: []int{1, 0}, valMap: map[uint64]uint64{1: 2, 2: 1}}}
	set := map[string]map[string]bool{"T0#1@0=0;T1#1@1=1": {"1,2": true}}
	closeOutcomes(set, swap)
	if !set["T0#1@0=2;T1#1@1=0"]["1,2"] || len(set) != 2 {
		t.Fatalf("closed set %v, want the swapped image added", set)
	}
	for _, bad := range []map[string]map[string]bool{
		{"T0#1@0=x": {"0": true}},
		{"T0@0=1": {"0": true}},
		{"T0#1@0=1;": {"0": true}},
		{"T0#1@0=1": {"0,": true}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("closeOutcomes(%v) did not panic", bad)
				}
			}()
			closeOutcomes(bad, swap)
		}()
	}
}

// TestMCGraphExport checks the state-graph artifact: populated, valid
// JSON, valid-looking DOT, and containing the node kinds a reader of the
// artifact navigates by.
func TestMCGraphExport(t *testing.T) {
	opts := mcQuick(config.RCC)
	opts.Graph = true
	res, err := ModelCheck(mp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	if g == nil || len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatalf("empty state graph: %+v", g)
	}
	kinds := make(map[string]bool)
	for _, n := range g.Nodes {
		kinds[n.Kind] = true
	}
	for _, want := range []string{"delay", "state", "terminal-ok"} {
		if !kinds[want] {
			t.Fatalf("graph missing %q nodes; kinds present: %v", want, kinds)
		}
	}
	data, err := g.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back MCGraph
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("graph JSON does not round-trip: %v", err)
	}
	if len(back.Nodes) != len(g.Nodes) || len(back.Edges) != len(g.Edges) {
		t.Fatalf("graph JSON lost elements: %d/%d nodes, %d/%d edges",
			len(back.Nodes), len(g.Nodes), len(back.Edges), len(g.Edges))
	}
	dot := g.DOT()
	if !strings.HasPrefix(dot, "digraph") || !strings.Contains(dot, "->") {
		t.Fatalf("malformed DOT output:\n%.200s", dot)
	}
}

// TestMCFamilyEnumeration pins the canonical program family the CI
// sweep exhausts: counts are exact (a change means the family, canonical
// form, or generator changed — update EXPERIMENTS.md alongside), and
// every member is well-formed and canonical.
func TestMCFamilyEnumeration(t *testing.T) {
	shape := FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2}
	fam := EnumFamily(shape)
	if len(fam) != 72 {
		t.Fatalf("2x1x2/2-line family has %d canonical programs, want 72", len(fam))
	}
	for i, p := range fam {
		if err := p.WellFormed(); err != nil {
			t.Fatalf("family member %d ill-formed: %v\n%s", i, err, p)
		}
		if !CanonicalProg(p) {
			t.Fatalf("family member %d not canonical:\n%s", i, p)
		}
	}
	// One warp per SM on 2 SMs with 1 line and 1 op: tiny but non-empty.
	tiny := EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 1, Lines: 1})
	if len(tiny) == 0 {
		t.Fatal("tiny family is empty")
	}
}

// TestMCErrors exercises the non-verdict error paths.
func TestMCErrors(t *testing.T) {
	if _, err := ModelCheck(mp(), MCOptions{Protocol: config.RCC, Limits: DefaultEnumLimits()}); err == nil {
		t.Fatal("ModelCheck accepted empty menus")
	}
	bad := &Prog{Lines: 1, Threads: []Thread{{SM: 0, Warp: 0, Ops: []Op{
		{Kind: workload.OpStore, Lines: []uint64{5}, Val: 1},
	}}}}
	if _, err := ModelCheck(bad, mcQuick(config.RCC)); err == nil {
		t.Fatal("ModelCheck accepted an out-of-range line")
	}
}

// TestMCMenuBounds: choices are uint8 menu indices, so a menu of 256
// entries must exhaust exactly and one of 257 must be refused rather than
// wrap the index and loop until MaxRuns. Entries past 2^20 cycles, which
// would size an enormous NoC calendar ring, are refused too.
func TestMCMenuBounds(t *testing.T) {
	one := &Prog{Lines: 1, Threads: []Thread{{SM: 0, Warp: 0, Ops: []Op{
		{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
	}}}}
	opts := mcQuick(config.RCC)
	opts.JitterMenu = []uint64{0}
	opts.MaxRuns = 3000
	opts.DelayMenu = nil
	for i := range 256 {
		opts.DelayMenu = append(opts.DelayMenu, uint32(i+1))
	}
	res, err := ModelCheck(one, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Truncated || res.Runs != 256 {
		t.Fatalf("256-entry delay menu: %d runs (truncated %v), want 256 exhausting it", res.Runs, res.Truncated)
	}
	for name, edit := range map[string]func(*MCOptions){
		"257 delays":  func(o *MCOptions) { o.DelayMenu = append(o.DelayMenu, 257) },
		"257 jitters": func(o *MCOptions) { o.JitterMenu = make([]uint64, 257) },
		"long delay":  func(o *MCOptions) { o.DelayMenu = []uint32{1, 1<<20 + 1} },
		"long jitter": func(o *MCOptions) { o.JitterMenu = []uint64{0, 1 << 40} },
	} {
		bad := opts
		bad.DelayMenu = slices.Clone(opts.DelayMenu)
		edit(&bad)
		if _, err := ModelCheck(one, bad); err == nil {
			t.Errorf("%s: ModelCheck accepted the menu", name)
		}
	}
}

// TestMCTruncation checks the MaxRuns escape hatch reports honestly.
func TestMCTruncation(t *testing.T) {
	opts := mcQuick(config.RCC)
	opts.MaxRuns = 3
	res, err := ModelCheck(mp(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatalf("MaxRuns=3 exploration not marked truncated (%d runs)", res.Runs)
	}
	if res.Runs > 3 {
		t.Fatalf("ran %d times past MaxRuns=3", res.Runs)
	}
}
