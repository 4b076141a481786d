package check

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/sc"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

func TestGenerateWellFormedAndDeterministic(t *testing.T) {
	gc := DefaultGenConfig()
	for seed := uint64(0); seed < 500; seed++ {
		p := Generate(seed, gc)
		if err := p.WellFormed(); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		q := Generate(seed, gc)
		a, _ := json.Marshal(p)
		b, _ := json.Marshal(q)
		if string(a) != string(b) {
			t.Fatalf("seed %d: generator not deterministic", seed)
		}
	}
}

func TestGenerateRespectsBudget(t *testing.T) {
	gc := DefaultGenConfig()
	for seed := uint64(0); seed < 200; seed++ {
		p := Generate(seed, gc)
		accesses := 0
		for _, th := range p.Threads {
			for _, op := range th.Ops {
				accesses += len(op.Lines)
			}
		}
		// The dry-budget fallback grants one line per otherwise-empty
		// thread, so allow one access of slack per thread.
		if accesses > gc.AccessBudget+len(p.Threads) {
			t.Fatalf("seed %d: %d line-accesses exceeds budget %d\n%s",
				seed, accesses, gc.AccessBudget, p)
		}
	}
}

func TestGenerateCoversPlacements(t *testing.T) {
	gc := DefaultGenConfig()
	sameSM, crossSM := false, false
	for seed := uint64(0); seed < 100 && !(sameSM && crossSM); seed++ {
		p := Generate(seed, gc)
		sms := make(map[int]int)
		for _, th := range p.Threads {
			sms[th.SM]++
		}
		if len(sms) > 1 {
			crossSM = true
		}
		for _, n := range sms {
			if n > 1 {
				sameSM = true
			}
		}
	}
	if !sameSM || !crossSM {
		t.Fatalf("placement mix missing: sameSM=%v crossSM=%v", sameSM, crossSM)
	}
}

// mp is message passing with the producer and consumer on separate SMs.
func mp() *Prog {
	return &Prog{Lines: 2, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
			{Kind: workload.OpStore, Lines: []uint64{1}, Val: 2},
		}},
		{SM: 1, Warp: 0, Ops: []Op{
			{Kind: workload.OpLoad, Lines: []uint64{1}},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
	}}
}

func TestEnumerateMessagePassing(t *testing.T) {
	set, err := mp().Enumerate(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	// Seeing done=2 then data=0 is the canonical SC violation.
	bad := CanonOutcome([]string{ObsKey(1, 0, 1, 2), ObsKey(1, 1, 0, 0)})
	if set.AllowsOutcome(bad) {
		t.Fatalf("SC enumeration allows the forbidden MP outcome %q", bad)
	}
	good := CanonOutcome([]string{ObsKey(1, 0, 1, 2), ObsKey(1, 1, 0, 1)})
	if !set.AllowsOutcome(good) {
		t.Fatalf("SC enumeration rejects the legal MP outcome %q", good)
	}
	// Final memory is the same under every interleaving here.
	for out, mems := range set.Outcomes {
		if !mems["1,2"] || len(mems) != 1 {
			t.Fatalf("outcome %q has final memories %v, want only 1,2", out, mems)
		}
	}
}

func TestEnumerateAtomics(t *testing.T) {
	p := &Prog{Lines: 1, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{{Kind: workload.OpAtomic, Lines: []uint64{0}, Val: 5}}},
		{SM: 1, Warp: 0, Ops: []Op{{Kind: workload.OpAtomic, Lines: []uint64{0}, Val: 7}}},
	}}
	set, err := p.Enumerate(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{
		CanonOutcome([]string{ObsKey(0, 0, 0, 0), ObsKey(1, 0, 0, 5)}): true,
		CanonOutcome([]string{ObsKey(0, 0, 0, 7), ObsKey(1, 0, 0, 0)}): true,
	}
	if len(set.Outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2: %v", len(set.Outcomes), set.Outcomes)
	}
	for out, mems := range set.Outcomes {
		if !want[out] {
			t.Fatalf("unexpected outcome %q", out)
		}
		if !mems["12"] || len(mems) != 1 {
			t.Fatalf("outcome %q: final memory %v, want 12 (atomics commute)", out, mems)
		}
	}
}

func TestEnumerateBarrier(t *testing.T) {
	// T0 stores after the barrier; T1 reads before and after it. The
	// pre-barrier read can never see the store.
	p := &Prog{Lines: 1, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpBarrier},
			{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
		}},
		{SM: 0, Warp: 1, Ops: []Op{
			{Kind: workload.OpLoad, Lines: []uint64{0}},
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
	}}
	set, err := p.Enumerate(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	for out := range set.Outcomes {
		if set.AllowsOutcome(CanonOutcome([]string{ObsKey(1, 0, 0, 1), ObsKey(1, 2, 0, 0)})) {
			t.Fatalf("barrier ordering violated in enumeration: %v", out)
		}
	}
	mustAllow := CanonOutcome([]string{ObsKey(1, 0, 0, 0), ObsKey(1, 2, 0, 1)})
	if !set.AllowsOutcome(mustAllow) {
		t.Fatalf("enumeration rejects the straightforward barrier outcome %q", mustAllow)
	}
	// A barrier on another SM is independent: a lone thread's barrier
	// releases immediately (live-warp semantics), so enumeration must
	// terminate and produce outcomes.
	q := &Prog{Lines: 1, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
		{SM: 1, Warp: 0, Ops: []Op{{Kind: workload.OpStore, Lines: []uint64{0}, Val: 3}}},
	}}
	if _, err := q.Enumerate(DefaultEnumLimits()); err != nil {
		t.Fatalf("singleton barrier group: %v", err)
	}
}

// litmusToProg converts an sc litmus test, one thread per SM.
func litmusToProg(l sc.Litmus, lines int) *Prog {
	p := &Prog{Lines: lines}
	for ti, ops := range l.Threads {
		th := Thread{SM: ti, Warp: 0}
		for _, op := range ops {
			if op.Store {
				th.Ops = append(th.Ops, Op{Kind: workload.OpStore, Lines: []uint64{op.Line}, Val: op.Val})
			} else {
				th.Ops = append(th.Ops, Op{Kind: workload.OpLoad, Lines: []uint64{op.Line}})
			}
		}
		p.Threads = append(p.Threads, th)
	}
	return p
}

// TestEnumerateAgreesWithSCOutcomes cross-validates the new enumerator
// against the independent sc.SCOutcomes implementation on random litmus
// programs (single-line ops, no atomics/fences/barriers — the shared
// subset of the two models).
func TestEnumerateAgreesWithSCOutcomes(t *testing.T) {
	rng := timing.NewRNG(77)
	const lines = 2
	for trial := 0; trial < 25; trial++ {
		l := sc.RandomLitmus(rng, 3, 3, lines)
		want := sc.SCOutcomes(l)
		p := litmusToProg(l, lines)
		set, err := p.Enumerate(DefaultEnumLimits())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Map each sc outcome (slot-ordered values) to this package's
		// canonical keyed form.
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
			var vals []uint64
			if len(out) > 0 {
				for _, part := range splitOutcome(string(out)) {
					vals = append(vals, part)
				}
			}
			if len(vals) != len(slots) {
				t.Fatalf("trial %d: outcome %q has %d values, want %d", trial, out, len(vals), len(slots))
			}
			entries := make([]string, len(slots))
			for k, s := range slots {
				entries[k] = ObsKey(s.tid, s.idx, s.line, vals[k])
			}
			wantKeys[CanonOutcome(entries)] = true
		}
		gotKeys := make(map[string]bool, len(set.Outcomes))
		for out := range set.Outcomes {
			gotKeys[out] = true
		}
		if !reflect.DeepEqual(wantKeys, gotKeys) {
			t.Fatalf("trial %d: enumerators disagree\n litmus: %v\n sc: %v\n check: %v",
				trial, l.Threads, wantKeys, gotKeys)
		}
	}
}

func splitOutcome(s string) []uint64 {
	var vals []uint64
	cur, have := uint64(0), false
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if have {
				vals = append(vals, cur)
			}
			cur, have = 0, false
			continue
		}
		cur = cur*10 + uint64(s[i]-'0')
		have = true
	}
	return vals
}

// quickOpts keeps differential runs cheap in unit tests.
func quickOpts() Options {
	opts := DefaultOptions()
	opts.RunSeeds = 2
	return opts
}

// uniquifyVals renumbers store values so the classic litmus tests (which
// reuse value 1 across lines) satisfy Prog's global-uniqueness rule.
func uniquifyVals(l sc.Litmus) sc.Litmus {
	val := uint64(0)
	for ti := range l.Threads {
		ops := append([]sc.LitmusOp(nil), l.Threads[ti]...)
		for oi := range ops {
			if ops[oi].Store {
				val++
				ops[oi].Val = val
			}
		}
		l.Threads[ti] = ops
	}
	return l
}

func TestCheckProgCleanOnLitmus(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs in -short mode")
	}
	for _, l := range []sc.Litmus{sc.MessagePassing(), sc.StoreBuffering(), sc.IRIW()} {
		p := litmusToProg(uniquifyVals(l), 2)
		fail, err := CheckProg(p, quickOpts())
		if err != nil {
			t.Fatalf("%s: %v", l.Name, err)
		}
		if fail != nil {
			t.Fatalf("%s: unexpected failure: %v\n%s", l.Name, fail, p)
		}
	}
}

func TestFuzzSeedsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs in -short mode")
	}
	opts := quickOpts()
	for seed := uint64(0); seed < 10; seed++ {
		p, fail, err := FuzzSeed(seed, opts)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if fail != nil {
			t.Fatalf("seed %d: %v\n%s", seed, fail, p)
		}
	}
}

func TestShrinkBarrierColumn(t *testing.T) {
	p := &Prog{Lines: 1, Threads: []Thread{
		{SM: 0, Warp: 0, Ops: []Op{
			{Kind: workload.OpLoad, Lines: []uint64{0}},
			{Kind: workload.OpBarrier},
			{Kind: workload.OpStore, Lines: []uint64{0}, Val: 1},
		}},
		{SM: 0, Warp: 1, Ops: []Op{
			{Kind: workload.OpBarrier},
			{Kind: workload.OpLoad, Lines: []uint64{0}},
		}},
	}}
	if err := p.WellFormed(); err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	removeOp(c, 0, 1) // T0's barrier: must drop T1's as a column
	clean(c)
	if err := c.WellFormed(); err != nil {
		t.Fatalf("after barrier removal: %v\n%s", err, c)
	}
	for ti, th := range c.Threads {
		for _, op := range th.Ops {
			if op.Kind == workload.OpBarrier {
				t.Fatalf("thread %d kept a barrier after column removal\n%s", ti, c)
			}
		}
	}

	// Dropping the load that trails T1's barrier leaves the thread ending
	// on the barrier; clean must strip the column.
	c = p.Clone()
	removeOp(c, 1, 1)
	clean(c)
	if err := c.WellFormed(); err != nil {
		t.Fatalf("after trailing-barrier cleanup: %v\n%s", err, c)
	}
}

func TestReproRoundTrip(t *testing.T) {
	p := mp()
	opts := quickOpts()
	fail := &Failure{Kind: FailOutcome, Protocol: "RCC", RunSeed: 7, Detail: "synthetic"}
	r := NewRepro(42, p, fail, opts)
	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, r); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || got.Failure.Kind != FailOutcome || got.RunSeeds != opts.RunSeeds {
		t.Fatalf("round trip mangled the repro: %+v", got)
	}
	a, _ := json.Marshal(r.Prog)
	b, _ := json.Marshal(got.Prog)
	if string(a) != string(b) {
		t.Fatalf("program changed across serialization:\n%s\n%s", a, b)
	}
	ropts, err := got.Options()
	if err != nil {
		t.Fatal(err)
	}
	if len(ropts.Protocols) != len(opts.Protocols) {
		t.Fatalf("protocols lost: %v", ropts.Protocols)
	}
}

// TestOptionsRejected: options under which a check would run nothing, or
// could not run, are an error from CheckProg and from a repro's Options
// and Replay, never a clean verdict.
func TestOptionsRejected(t *testing.T) {
	for name, edit := range map[string]func(*Options){
		"no runs":       func(o *Options) { o.RunSeeds = 0 },
		"no protocols":  func(o *Options) { o.Protocols = nil },
		"weak protocol": func(o *Options) { o.Protocols = []config.Protocol{config.RCC, config.TCW} },
		"long jitter":   func(o *Options) { o.Jitter = 1<<20 + 1 },
		"too many runs": func(o *Options) { o.RunSeeds = 1<<16 + 1 },
	} {
		opts := quickOpts()
		edit(&opts)
		if _, err := CheckProg(mp(), opts); err == nil {
			t.Errorf("%s: CheckProg accepted the options", name)
		}
		r := NewRepro(0, mp(), nil, opts)
		if _, err := r.Options(); err == nil {
			t.Errorf("%s: Repro.Options accepted the options", name)
		}
		if _, err := r.Replay(); err == nil {
			t.Errorf("%s: Repro.Replay ran", name)
		}
	}
	opts := quickOpts()
	opts.Jitter = 1 << 20
	opts.RunSeeds = 1 << 16
	if err := opts.Validate(); err != nil {
		t.Errorf("jitter and runs at their bounds rejected: %v", err)
	}
}

// TestEnumLimitError: a program too large to enumerate reports
// ErrEnumLimit, which rccfuzz counts as a skip, for either limit.
func TestEnumLimitError(t *testing.T) {
	for _, limits := range []EnumLimits{{MaxStates: 2, MaxEntries: 1 << 22}, {MaxStates: 1 << 20, MaxEntries: 2}} {
		opts := quickOpts()
		opts.Limits = limits
		if _, _, err := FuzzSeed(0, opts); !errors.Is(err, ErrEnumLimit) {
			t.Errorf("limits %+v: error %v, want ErrEnumLimit", limits, err)
		}
	}
}

// TestMutationSelfTest proves the harness catches and shrinks a real
// protocol bug: with every L1 lease check weakened (expired leases stay
// readable — disabling the mechanism RCC's SC argument rests on), the
// fuzzer must find an SC violation within a few seeds, shrink it to a
// tiny program, and produce a repro that replays under the planted bug
// and passes once the bug is removed.
func TestMutationSelfTest(t *testing.T) {
	if testing.Short() {
		t.Skip("differential runs in -short mode")
	}
	restore := core.WeakenLeaseCheckForTest(1 << 40)
	restored := false
	defer func() {
		if !restored {
			restore()
		}
	}()

	// More timing seeds than the fuzzing default: shrink acceptance needs
	// smaller candidates to reproduce reliably, and with the lease check
	// disabled the violations are timing-dependent.
	opts := DefaultOptions()
	opts.Protocols = []config.Protocol{config.RCC}
	opts.RunSeeds = 4

	var (
		seed uint64
		prog *Prog
		fail *Failure
	)
	const maxSeeds = 60
	for seed = 0; seed < maxSeeds; seed++ {
		p, f, err := FuzzSeed(seed, opts)
		if err != nil {
			continue
		}
		if f != nil {
			prog, fail = p, f
			break
		}
	}
	if fail == nil {
		t.Fatalf("planted lease bug not caught in %d seeds", maxSeeds)
	}
	t.Logf("seed %d caught the planted bug: %v", seed, fail)

	small, sfail := Shrink(prog, fail, opts)
	threads, ops := small.Shape()
	t.Logf("shrunk to %d threads / %d ops:\n%s", threads, ops, small)
	if threads > 3 {
		t.Errorf("shrunk repro has %d threads, want <= 3", threads)
	}
	if ops > 8 {
		t.Errorf("shrunk repro has %d ops, want <= 8", ops)
	}

	path := filepath.Join(t.TempDir(), "repro.json")
	if err := WriteRepro(path, NewRepro(seed, small, sfail, opts)); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	replayFail, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if replayFail == nil {
		t.Fatal("shrunk repro does not reproduce under the planted bug")
	}

	restore()
	restored = true
	cleanFail, err := loaded.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if cleanFail != nil {
		t.Fatalf("repro still fails after removing the planted bug: %v", cleanFail)
	}
}

func TestParseOpKindRoundTrip(t *testing.T) {
	for _, k := range []workload.OpKind{
		workload.OpCompute, workload.OpLocal, workload.OpLoad,
		workload.OpStore, workload.OpAtomic, workload.OpFence, workload.OpBarrier,
	} {
		got, err := parseOpKind(k.String())
		if err != nil || got != k {
			t.Fatalf("round trip %v: got %v, %v", k, got, err)
		}
	}
	if _, err := parseOpKind("NOPE"); err == nil {
		t.Fatal("parseOpKind accepted garbage")
	}
}

func TestWellFormedRejections(t *testing.T) {
	base := func() *Prog { return mp() }
	cases := []struct {
		name string
		mut  func(*Prog)
	}{
		{"no threads", func(p *Prog) { p.Threads = nil }},
		{"dup placement", func(p *Prog) { p.Threads[1].SM = 0 }},
		{"line out of range", func(p *Prog) { p.Threads[0].Ops[0].Lines = []uint64{9} }},
		{"zero store value", func(p *Prog) { p.Threads[0].Ops[0].Val = 0 }},
		{"dup store value", func(p *Prog) { p.Threads[0].Ops[1].Val = 1 }},
		{"trailing barrier", func(p *Prog) {
			p.Threads[0].Ops = append(p.Threads[0].Ops, Op{Kind: workload.OpBarrier})
		}},
		{"fence with lines", func(p *Prog) {
			p.Threads[0].Ops = append(p.Threads[0].Ops, Op{Kind: workload.OpFence, Lines: []uint64{0}})
		}},
		{"atomic divergence", func(p *Prog) {
			p.Threads[0].Ops[0] = Op{Kind: workload.OpAtomic, Lines: []uint64{0, 1}, Val: 9}
		}},
		{"dup line in op", func(p *Prog) { p.Threads[0].Ops[0].Lines = []uint64{0, 0} }},
		{"SM past cap", func(p *Prog) { p.Threads[1].SM = 2_000_000 }},
		{"warp past cap", func(p *Prog) { p.Threads[1].Warp = placeCap }},
		{"lines past cap", func(p *Prog) { p.Lines = 4_000_000_000 }},
	}
	for _, tc := range cases {
		p := base()
		tc.mut(p)
		if err := p.WellFormed(); err == nil {
			t.Errorf("%s: WellFormed accepted\n%s", tc.name, p)
		}
	}
	if err := base().WellFormed(); err != nil {
		t.Fatalf("baseline MP program rejected: %v", err)
	}
}

func TestFailureError(t *testing.T) {
	f := &Failure{Kind: FailFinalMem, Protocol: "TCS", RunSeed: 3, Detail: "x"}
	if s := f.Error(); s == "" || fmt.Sprintf("%v", f) == "" {
		t.Fatal("empty failure rendering")
	}
}
