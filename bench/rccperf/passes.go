package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sort"
	"strings"
	"time"

	"rccsim/internal/check"
	"rccsim/internal/config"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// workloadSpec is one benchmark workload. The simulation workloads run
// every Table IV kernel under each of protos on the Table III machine;
// mc-family model-checks a program family instead.
type workloadSpec struct {
	name     string
	protos   []config.Protocol
	observed bool // attach the full observer set (trace bus, heat, spans)
	mc       bool
}

var workloads = []workloadSpec{
	{name: "suite-sc", protos: []config.Protocol{config.MESI, config.TCS, config.RCC, config.SCIdeal}},
	{name: "suite-weak", protos: []config.Protocol{config.TCW, config.RCCWO}},
	{name: "mc-family", mc: true},
	{name: "observed", protos: []config.Protocol{config.RCC, config.MESI}, observed: true},
}

// mcShape is the canonical family rcccheck exhausts by default.
var mcShape = check.FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2}

type passKind int

const (
	warmup passKind = iota // untimed, checked; the reference for every later pass
	timed                  // end-to-end numbers come from these alone
	traced                 // CPU-profiled; simulations driven Step by Step
)

func (k passKind) String() string {
	return [...]string{"warmup", "timed", "traced"}[k]
}

// pass is what one pass over a workload measured and counted.
type pass struct {
	kind  passKind
	wall  time.Duration
	runs  []time.Duration // one per run: a machine run, or one program's ModelCheck
	alloc uint64          // bytes allocated (runtime.MemStats.TotalAlloc delta)

	setup, generate, newM, simRun, modelCheck time.Duration

	attempted, failed int
	digest            hash.Hash // over every run's behaviour, in run order
	digestHex         string

	machines int       // machine runs completed (model checking: explored runs)
	cycles   uint64    // simulated cycles, summed over runs
	st       stats.Run // counters merged over runs (Cycles excluded)

	mcRuns, mcStates     int
	traceEvents, spanOps uint64

	// Step-loop accounting (traced simulation passes only).
	visits, busyVisits uint64
	busyNs, idleNs     time.Duration

	refLoops []time.Duration // reference-loop times, one before each run
	host     float64         // host factor of the pass (see calib.go)
}

// cal converts a duration measured in this pass to reference-host
// seconds.
func (p *pass) cal(d time.Duration) float64 { return d.Seconds() / p.host }

// bench runs one workload.
type bench struct {
	wl     workloadSpec
	cfg    config.Config // the machine of the simulation workloads
	progs  int           // cap on mc-family programs; 0 = all
	spans  *spanLog
	ref    []uint64 // the reference loop's buffer
	cycles []uint64 // per-run simulated cycles of the warm-up pass
	errs   []string // first few failure messages
}

// runPass runs one pass of kind k.
func (b *bench) runPass(k passKind) *pass {
	p := &pass{kind: k, digest: sha256.New()}
	runtime.GC() // start every pass from the same heap state
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	id := b.spans.begin("pass", b.wl.name+"/"+k.String(), 0)
	if b.wl.mc {
		b.mcPass(p, id)
	} else {
		b.simPass(p, id)
	}
	p.wall = b.spans.end(id)
	runtime.ReadMemStats(&ms)
	p.alloc = ms.TotalAlloc - before
	p.digestHex = hex.EncodeToString(p.digest.Sum(nil))
	p.host = hostFactor(p.refLoops)
	return p
}

// fail records a failed run.
func (b *bench) fail(p *pass, label string, err error) {
	p.failed++
	if len(b.errs) < 20 {
		b.errs = append(b.errs, fmt.Sprintf("%s pass: %s: %v", p.kind, label, err))
	}
}

// simPass runs every kernel under every protocol of the workload, in a
// fixed order.
func (b *bench) simPass(p *pass, parent int) {
	i := 0
	for _, bm := range workload.All() {
		for _, proto := range b.wl.protos {
			cfg := b.cfg
			cfg.Protocol = proto
			label := bm.Name + "/" + proto.String()
			p.attempted++
			p.refLoops = append(p.refLoops, refLoop(b.ref))
			id := b.spans.begin("run", label, parent)
			var err error
			if p.kind == traced {
				err = b.steppedRun(p, i, cfg, bm, id)
			} else {
				err = b.checkedRun(p, cfg, bm, id)
			}
			p.runs = append(p.runs, b.spans.end(id))
			if err != nil {
				b.fail(p, label, err)
			}
			i++
		}
	}
}

// checkedRun runs one simulation to completion through the public run
// API and checks its counters.
func (b *bench) checkedRun(p *pass, cfg config.Config, bm workload.Benchmark, parent int) error {
	var (
		st   *stats.Run
		prog *workload.Program
		err  error
	)
	if b.wl.observed {
		st, prog, err = b.observedRun(p, cfg, bm, parent)
	} else {
		st, prog, err = b.plainRun(p, cfg, bm, parent)
	}
	if err != nil {
		return err
	}
	if got, want := st.TotalAccounted(), st.Cycles*uint64(cfg.NumSMs); got != want {
		return fmt.Errorf("cycle account sums to %d, want Cycles × NumSMs = %d", got, want)
	}
	if got, want := st.Instructions, uint64(prog.Count().Instrs); got != want {
		return fmt.Errorf("%d instructions retired, program has %d", got, want)
	}
	d := st.WireDigest()
	if b.wl.observed && p.kind == warmup {
		off, _, err := b.plainRun(&pass{}, cfg, bm, parent)
		if err != nil {
			return fmt.Errorf("observers-off run: %w", err)
		}
		if od := off.WireDigest(); od != d {
			return fmt.Errorf("stats digest %.12s with observers, %.12s without", d, od)
		}
	}
	if p.kind == warmup {
		b.cycles = append(b.cycles, st.Cycles)
	}
	p.digest.Write([]byte(d))
	p.st.Merge(st)
	p.cycles += st.Cycles
	p.machines++
	return nil
}

// plainRun is Generate, sim.New and Run, each timed.
func (b *bench) plainRun(p *pass, cfg config.Config, bm workload.Benchmark, parent int) (*stats.Run, *workload.Program, error) {
	m, prog, err := b.build(p, cfg, bm, parent)
	if err != nil {
		return nil, nil, err
	}
	id := b.spans.begin("sim.Run", "", parent)
	st, err := m.Run()
	p.simRun += b.spans.end(id)
	return st, prog, err
}

// build generates the program and builds its machine, timing both as
// set-up.
func (b *bench) build(p *pass, cfg config.Config, bm workload.Benchmark, parent int) (*sim.Machine, *workload.Program, error) {
	prog := b.generate(p, cfg, bm, parent)
	id := b.spans.begin("sim.New", "", parent)
	m, err := sim.New(cfg, prog, nil)
	d := b.spans.end(id)
	p.newM += d
	p.setup += d
	return m, prog, err
}

func (b *bench) generate(p *pass, cfg config.Config, bm workload.Benchmark, parent int) *workload.Program {
	id := b.spans.begin("workload.Generate", "", parent)
	prog := bm.Generate(cfg)
	d := b.spans.end(id)
	p.generate += d
	p.setup += d
	return prog
}

// observedRun runs one simulation through sim.RunBenchmarkSpanned with
// every observer attached. The program is generated separately as well,
// for the instruction-count check; sim.New happens inside the call and
// is not timed on its own.
func (b *bench) observedRun(p *pass, cfg config.Config, bm workload.Benchmark, parent int) (*stats.Run, *workload.Program, error) {
	prog := b.generate(p, cfg, bm, parent)
	o := newObservers()
	id := b.spans.begin("sim.RunBenchmarkSpanned", "", parent)
	res, err := sim.RunBenchmarkSpanned(cfg, bm, o.bus, o.heat, o.rec)
	p.simRun += b.spans.end(id)
	if err != nil {
		return nil, nil, err
	}
	if err := o.finish(p); err != nil {
		return nil, nil, err
	}
	return res.Stats, prog, nil
}

// observers is the observer set of the observed workload: an event bus
// with an invariant checker and an event counter, a contention sketch
// and a causal-span recorder.
type observers struct {
	bus    *trace.Bus
	events countSink
	heat   *obs.Heat
	rec    *span.Recorder
}

func newObservers() *observers {
	o := &observers{heat: obs.NewHeat(64), rec: span.NewRecorder(16)}
	o.bus = trace.NewBus(trace.NewInvariantSink(nil), &o.events)
	return o
}

// finish closes the bus, which reports any invariant violation, and
// summarizes the spans, as a run of rccbench stats -spans does.
func (o *observers) finish(p *pass) error {
	err := o.bus.Close()
	sum := o.rec.Summarize(10)
	p.traceEvents += o.events.n
	p.spanOps += uint64(sum.Tracked)
	if err != nil {
		return fmt.Errorf("trace bus: %w", err)
	}
	return nil
}

// countSink counts trace events.
type countSink struct{ n uint64 }

func (c *countSink) Event(*trace.Event) { c.n++ }
func (c *countSink) Close() error       { return nil }

// steppedRun drives one simulation with Step, timing every visit, and
// checks that it ends on the cycle the warm-up pass's Run ended on.
func (b *bench) steppedRun(p *pass, i int, cfg config.Config, bm workload.Benchmark, parent int) error {
	m, _, err := b.build(p, cfg, bm, parent)
	if err != nil {
		return err
	}
	var o *observers
	if b.wl.observed {
		o = newObservers()
		m.AttachTracer(o.bus)
		m.AttachHeat(o.heat)
		m.AttachSpans(o.rec)
	}
	id := b.spans.begin("sim.Step", "", parent)
	err = stepLoop(m, cfg, p)
	p.simRun += b.spans.end(id)
	if err != nil {
		return err
	}
	if o != nil {
		if err := o.finish(p); err != nil {
			return err
		}
	}
	if i >= len(b.cycles) {
		return errors.New("no warm-up run to compare with")
	}
	if got, want := uint64(m.Now()), b.cycles[i]; got != want {
		return fmt.Errorf("step loop ended at cycle %d, Run at %d", got, want)
	}
	p.cycles += uint64(m.Now())
	p.machines++
	return nil
}

// stepLoop runs m to completion one Step at a time, with the same
// cycle cap and deadlock bound as Machine.Run.
func stepLoop(m *sim.Machine, cfg config.Config, p *pass) error {
	idle, idleLimit := 0, 4096+64*cfg.NumSMs
	for !m.Done() {
		if cfg.MaxCycles > 0 && uint64(m.Now()) > cfg.MaxCycles {
			return fmt.Errorf("exceeded MaxCycles=%d", cfg.MaxCycles)
		}
		t := time.Now()
		busy := m.Step()
		d := time.Since(t)
		p.visits++
		if busy {
			p.busyVisits++
			p.busyNs += d
			idle = 0
			continue
		}
		p.idleNs += d
		if idle++; idle > idleLimit {
			return errors.New("machine idle but not done")
		}
	}
	return nil
}

// mcPass model-checks every program of the canonical family under RCC.
func (b *bench) mcPass(p *pass, parent int) {
	id := b.spans.begin("check.EnumFamily", "", parent)
	fam := check.EnumFamily(mcShape)
	p.setup += b.spans.end(id)
	if b.progs > 0 && len(fam) > b.progs {
		fam = fam[:b.progs]
	}
	opts := check.DefaultMCOptions()
	opts.Graph = false
	for i, prog := range fam {
		label := fmt.Sprintf("prog%d", i)
		p.attempted++
		// ModelCheck enumerates the SC outcomes again itself; timing the
		// enumeration alone makes it set-up, as Generate is for the suites.
		id := b.spans.begin("check.Enumerate", label, parent)
		_, err := prog.Enumerate(opts.Limits)
		p.setup += b.spans.end(id)
		p.refLoops = append(p.refLoops, refLoop(b.ref))
		run := b.spans.begin("run", label, parent)
		id = b.spans.begin("check.ModelCheck", "", run)
		res, mcErr := check.ModelCheck(prog, opts)
		p.modelCheck += b.spans.end(id)
		p.runs = append(p.runs, b.spans.end(run))
		if err == nil {
			err = mcErr
		}
		if err == nil {
			err = mcVerdict(res)
		}
		if err != nil {
			b.fail(p, label, err)
			continue
		}
		p.mcRuns += res.Runs
		p.mcStates += res.States
		p.machines += res.Runs
		fmt.Fprintf(p.digest, "%d %d %d %s\n", res.Runs, res.States, res.MaxDepth, outcomeKey(res.Outcomes))
	}
}

// mcVerdict fails an exploration that found a violation or was cut short.
func mcVerdict(res *check.MCResult) error {
	switch {
	case res.Failures > 0 || res.Failure != nil:
		return fmt.Errorf("%d violating runs: %v", res.Failures, res.Failure)
	case res.Truncated:
		return fmt.Errorf("exploration truncated at %d runs", res.Runs)
	}
	return nil
}

// outcomeKey renders an outcome set canonically.
func outcomeKey(outcomes map[string]map[string]bool) string {
	var keys []string
	for o, mems := range outcomes {
		for m := range mems {
			keys = append(keys, o+"|"+m)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, ";")
}
