package check

import (
	"encoding/json"
	"os"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

func ld(line uint64) Op      { return Op{Kind: workload.OpLoad, Lines: []uint64{line}} }
func st(line, val uint64) Op { return Op{Kind: workload.OpStore, Lines: []uint64{line}, Val: val} }

// litmusProg places litmus thread i on SM i, warp 0, so every pair of
// threads communicates through the L2.
func litmusProg(lines int, threads ...[]Op) *Prog {
	p := &Prog{Lines: lines}
	for i, ops := range threads {
		p.Threads = append(p.Threads, Thread{SM: i, Ops: ops})
	}
	return p
}

// litmusShape is one of the eight named litmus shapes in
// testdata/litmus.json: message passing (Sec. II-A's data/done pattern),
// store buffering, load buffering, read-read and write-read coherence,
// IRIW, WRC and 2+2W. Each thread is on its own SM, warp 0, so every pair
// of threads communicates through the L2; store values are unique; line 0
// is X (data), line 1 is Y (the flag). internal/sim's
// TestLitmusSCProtocols runs the same file on the SC protocols.
type litmusShape struct {
	Name string `json:"name"`
	Prog *Prog  `json:"prog"`
}

// litmusShapes decodes the shapes afresh on each call, so callers may
// edit what they get.
func litmusShapes() []litmusShape {
	var shapes []litmusShape
	data, err := os.ReadFile("testdata/litmus.json")
	if err == nil {
		err = json.Unmarshal(data, &shapes)
	}
	if err != nil {
		panic(err)
	}
	return shapes
}

// shape is the litmus shape called name.
func shape(name string) *Prog {
	for _, s := range litmusShapes() {
		if s.Name == name {
			return s.Prog
		}
	}
	panic("no litmus shape " + name)
}

func mp() *Prog { return shape("message-passing") }
func sb() *Prog { return shape("store-buffering") }

// loadOutcome is the outcome key of p's single-line loads reading vals,
// in thread-major program order.
func loadOutcome(p *Prog, vals ...uint64) string {
	var keys []string
	for ti, th := range p.Threads {
		for oi, op := range th.Ops {
			if op.Kind == workload.OpLoad {
				keys = append(keys, ObsKey(ti, oi, op.Lines[0], vals[len(keys)]))
			}
		}
	}
	return CanonOutcome(keys)
}

// litmusGen draws load/store-only programs of 2 or 3 threads, each of
// 1..ops single-line operations over 2 lines and on its own SM.
func litmusGen(ops int) GenConfig {
	return GenConfig{MaxThreads: 3, MaxOpsPerThr: ops, MaxLines: 2, AccessBudget: 12, NumSMs: 3, WarpsPerSM: 1, PStore: 0.5}
}

// fenced returns p with a FENCE after every operation: the conservative
// fencing that restores SC on a weakly ordered machine.
func fenced(p *Prog) *Prog {
	q := p.Clone()
	for i, th := range q.Threads {
		ops := make([]Op, 0, 2*len(th.Ops))
		for _, op := range th.Ops {
			ops = append(ops, op, Op{Kind: workload.OpFence})
		}
		q.Threads[i].Ops = ops
	}
	return q
}

// runJudged judges runs perturbed runs (jitter 32) of p under proto on one
// check runner, whose config tweak may edit before the first run, and
// calls each after every run judge passes. Options.Validate refuses the
// weakly ordered protocols, so their fenced runs come through here.
func runJudged(t *testing.T, p *Prog, proto config.Protocol, runs int, tweak func(*config.Config), each func(r *runner, outcome string)) {
	t.Helper()
	set, err := p.Enumerate(DefaultEnumLimits())
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(p, set, proto, 0)
	if tweak != nil {
		tweak(&r.cfg)
	}
	for i := 0; i < runs; i++ {
		if err := r.perturb(i, 32); err != nil {
			t.Fatal(err)
		}
		fail, outcome, _ := r.judge(runSeed(i))
		if fail != nil {
			t.Fatalf("%v\n%s", fail, p)
		}
		if each != nil {
			each(&r, outcome)
		}
	}
}

// checkClean runs CheckProg under proto and fails t on any violation.
func checkClean(t *testing.T, p *Prog, proto config.Protocol, runs int) {
	t.Helper()
	opts := DefaultOptions()
	opts.Protocols = []config.Protocol{proto}
	opts.RunSeeds = runs
	fail, err := CheckProg(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fail != nil {
		t.Fatalf("%v\n%s", fail, p)
	}
}

// TestLitmusWOFenced: the weakly ordered protocols with a fence after
// every access stay within each shape's SC set.
func TestLitmusWOFenced(t *testing.T) {
	for _, s := range litmusShapes() {
		for _, proto := range []config.Protocol{config.TCW, config.RCCWO} {
			t.Run(s.Name+"/"+proto.String(), func(t *testing.T) { runJudged(t, fenced(s.Prog), proto, 20, nil, nil) })
		}
	}
}

// TestLitmusOutcomeDiversity: the perturbations shake out more than one
// interleaving of message passing, or the SC checks would prove little.
func TestLitmusOutcomeDiversity(t *testing.T) {
	seen := map[string]int{}
	runJudged(t, mp(), config.RCC, 40, nil, func(_ *runner, outcome string) { seen[outcome]++ })
	if len(seen) < 2 {
		t.Fatalf("only outcomes %v observed; perturbation too weak", seen)
	}
}

// TestRandomProgramsSC: random load/store programs stay within their SC
// sets under each SC-capable protocol.
func TestRandomProgramsSC(t *testing.T) {
	for _, proto := range []config.Protocol{config.RCC, config.TCS, config.MESI} {
		t.Run(proto.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 12; seed++ {
				checkClean(t, Generate(seed, litmusGen(4)), proto, 5)
			}
		})
	}
}

// TestRandomProgramsFencedWO does the same for the weakly ordered
// protocols with a fence after every access.
func TestRandomProgramsFencedWO(t *testing.T) {
	for _, proto := range []config.Protocol{config.TCW, config.RCCWO} {
		t.Run(proto.String(), func(t *testing.T) {
			for seed := uint64(1); seed <= 8; seed++ {
				runJudged(t, fenced(Generate(seed, litmusGen(3))), proto, 20, nil, nil)
			}
		})
	}
}

// TestRolloverPreservesSC judges a ping-pong program under RCC at the
// narrowest timestamp width Validate allows (both lease bounds 8, rollover
// past 32), where every run rolls over mid-program.
func TestRolloverPreservesSC(t *testing.T) {
	p := litmusProg(2,
		[]Op{st(0, 1), ld(0), st(0, 2), ld(0), st(0, 3), ld(0), st(1, 4)},
		[]Op{ld(0), ld(0), ld(0), ld(1), ld(0)})
	narrow := func(cfg *config.Config) {
		cfg.RCCMinLease, cfg.RCCMaxLease, cfg.RCCTSMax = 8, 8, 32
	}
	runJudged(t, p, config.RCC, 15, narrow, func(r *runner, _ string) {
		if r.m.Stats().Rollovers == 0 {
			t.Fatal("run did not roll over")
		}
	})
}
