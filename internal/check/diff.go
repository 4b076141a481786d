package check

import (
	"fmt"
	"sort"
	"strings"

	"rccsim/internal/config"
	"rccsim/internal/sim"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// FailKind classifies an oracle violation.
type FailKind string

const (
	// FailRunError: the machine did not terminate cleanly (deadlock,
	// MaxCycles livelock guard) or a runtime timestamp invariant fired.
	FailRunError FailKind = "run-error"
	// FailObsShape: the observation stream is malformed — a load line or
	// atomic observed more than once, never, or from an unexpected
	// (warp, pc, line) coordinate.
	FailObsShape FailKind = "obs-shape"
	// FailOutcome: the observed load/atomic values form an outcome no SC
	// interleaving produces.
	FailOutcome FailKind = "sc-outcome"
	// FailFinalMem: the outcome is SC-reachable but the final memory
	// image is not one SC allows together with it. When SC admits a
	// unique final image this oracle degenerates to final-memory
	// equality across all protocols.
	FailFinalMem FailKind = "final-memory"
)

// Failure describes one oracle violation: which protocol, which run seed,
// and what was observed versus allowed.
type Failure struct {
	Kind     FailKind `json:"kind"`
	Protocol string   `json:"protocol"`
	RunSeed  uint64   `json:"runSeed"`
	Detail   string   `json:"detail"`
}

func (f *Failure) Error() string {
	return fmt.Sprintf("%s under %s (run seed %d): %s", f.Kind, f.Protocol, f.RunSeed, f.Detail)
}

// Options configures a differential check.
type Options struct {
	Protocols []config.Protocol // protocols to cross-check (must claim SC)
	RunSeeds  int               // timing-perturbed runs per protocol
	Jitter    uint64            // max extra NoC pipeline delay per message, in cycles (0 = none)
	MaxCycles uint64            // per-run cycle cap (0 = config default)
	Gen       GenConfig         // program generator shape (FuzzSeed)
	Limits    EnumLimits        // SC enumeration bounds
}

// DefaultOptions cross-checks every protocol that claims sequential
// consistency (Table I minus the weakly ordered TCW and RCC-WO) under
// three jittered timings each.
func DefaultOptions() Options {
	return Options{
		Protocols: []config.Protocol{config.MESI, config.TCS, config.RCC, config.SCIdeal},
		RunSeeds:  3,
		Jitter:    32,
		MaxCycles: 5_000_000,
		Gen:       DefaultGenConfig(),
		Limits:    DefaultEnumLimits(),
	}
}

// maxDelay bounds each extra delay a checker adds (the fuzzer's Jitter,
// every menu entry) as config.Validate bounds latencies, in cycles.
const maxDelay = 1 << 20

// maxRunSeeds bounds the perturbed runs per protocol: a repro asking for
// a billion would replay for hours.
const maxRunSeeds = 1 << 16

// Validate rejects options under which a check would run nothing or could
// not run. Flags and repro files both reach CheckProg through it.
func (o Options) Validate() error {
	switch {
	case o.RunSeeds < 1 || o.RunSeeds > maxRunSeeds:
		return fmt.Errorf("check: %d runs per protocol, want 1 to %d", o.RunSeeds, maxRunSeeds)
	case len(o.Protocols) == 0:
		return fmt.Errorf("check: no protocols to cross-check")
	case o.Jitter > maxDelay:
		return fmt.Errorf("check: jitter %d exceeds %d cycles", o.Jitter, maxDelay)
	}
	for _, p := range o.Protocols {
		if !p.SupportsSC() || p.Consistency() != config.SC {
			return fmt.Errorf("check: %s does not claim sequential consistency; the SC oracles do not apply", p)
		}
	}
	return nil
}

// runSeed derives the seed of the r-th perturbed run. Replays use the
// same derivation, so a repro only records the run count.
func runSeed(r int) uint64 { return (uint64(r) + 1) * 0x9e3779b97f4a7c15 }

// recorder implements gpu.Observer, mapping machine observations back to
// program coordinates: warp (sm, w) to the thread placed there, trace pc
// to operation index (every trace carries one leading compute, so op i
// completes at pc i+1), machine line to program line (minus Base).
// A runner keeps one recorder for its machine and resets it between runs;
// the machine calls it from the one goroutine that steps it.
type recorder struct {
	threadOf map[int]int
	maxWarps int
	entries  []string       // full ObsKey entries, completion order
	pos      map[string]int // position-only key -> observation count
	bad      []string       // observations with no program coordinate
}

func newRecorder(p *Prog, maxWarps int) *recorder {
	r := &recorder{
		threadOf: make(map[int]int, len(p.Threads)),
		maxWarps: maxWarps,
		pos:      make(map[string]int),
	}
	for ti, th := range p.Threads {
		r.threadOf[th.SM*maxWarps+th.Warp] = ti
	}
	return r
}

// reset clears the observations for a new run of the same program.
func (r *recorder) reset() {
	r.entries = r.entries[:0]
	clear(r.pos)
	r.bad = r.bad[:0]
}

func posKey(ti, opIdx int, line uint64) string {
	return fmt.Sprintf("T%d#%d@%d", ti, opIdx, line)
}

// LoadObserved implements gpu.Observer.
func (r *recorder) LoadObserved(sm, warp, pc int, line, val uint64) {
	ti, ok := r.threadOf[sm*r.maxWarps+warp]
	if !ok || pc < 1 || line < Base {
		r.bad = append(r.bad, fmt.Sprintf("sm=%d warp=%d pc=%d line=%d val=%d", sm, warp, pc, line, val))
		return
	}
	opIdx := pc - 1
	l := line - Base
	r.entries = append(r.entries, ObsKey(ti, opIdx, l, val))
	r.pos[posKey(ti, opIdx, l)]++
}

// expectedObs returns the exact multiset of observation positions a clean
// run must produce: one per load line, one per atomic.
func expectedObs(p *Prog) map[string]int {
	exp := make(map[string]int)
	for ti, th := range p.Threads {
		for oi, op := range th.Ops {
			if op.Kind == workload.OpLoad || op.Kind == workload.OpAtomic {
				for _, l := range op.Lines {
					exp[posKey(ti, oi, l)]++
				}
			}
		}
	}
	return exp
}

// CheckProg runs the program under every protocol and timing seed in
// opts and validates each run against the SC enumeration. It returns the
// first oracle violation, or nil if every run is SC. A non-nil error
// means the check itself could not run (invalid options, ill-formed
// program, enumeration blow-up) — not a verdict about the protocols.
func CheckProg(p *Prog, opts Options) (*Failure, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	set, err := p.Enumerate(opts.Limits)
	if err != nil {
		return nil, err
	}
	for _, proto := range opts.Protocols {
		r := newRunner(p, set, proto, opts.MaxCycles)
		for i := 0; i < opts.RunSeeds; i++ {
			if err := r.perturb(i, opts.Jitter); err != nil {
				return nil, err
			}
			if fail, _, _ := r.judge(runSeed(i)); fail != nil {
				return fail, nil
			}
		}
	}
	return nil, nil
}

// runner runs one program under one protocol on one machine, built on the
// first run and reset, with its recorder and invariant sink, for every
// later one: the fuzzer's run seeds or the model checker's replays.
type runner struct {
	p   *Prog
	cfg config.Config
	set *SCSet
	exp map[string]int

	m   *sim.Machine // nil until the first run
	rec *recorder
	inv *trace.InvariantSink
	bus *trace.Bus
}

// newRunner sizes the machine for p under proto. The machine ignores
// cfg.Seed: a run's timing comes from its issue delays and its NoC delay
// chooser.
func newRunner(p *Prog, set *SCSet, proto config.Protocol, maxCycles uint64) runner {
	cfg := config.Small()
	cfg.Protocol = proto
	cfg.NumSMs, cfg.WarpsPerSM = p.MachineShape()
	if maxCycles > 0 {
		cfg.MaxCycles = maxCycles
	}
	return runner{p: p, cfg: cfg, set: set, exp: expectedObs(p)}
}

// machine readies the runner's machine for a run of wl: built on the
// first run, reset on every later one, with the invariant sink attached.
func (r *runner) machine(wl *workload.Program) error {
	if r.m == nil {
		r.rec = newRecorder(r.p, r.cfg.WarpsPerSM)
		m, err := sim.New(r.cfg, wl, r.rec)
		if err != nil {
			return fmt.Errorf("check: building machine: %w", err)
		}
		r.m = m
		r.inv = trace.NewInvariantSink(nil)
		r.bus = trace.NewBus(r.inv)
	} else {
		r.rec.reset()
		r.inv.Reset()
		if err := r.m.Reset(wl, r.rec); err != nil {
			return fmt.Errorf("check: resetting machine: %w", err)
		}
	}
	r.m.Attach(trace.Observers{Tr: r.bus})
	return nil
}

// perturb readies the machine for the i-th perturbed run: issue delays of
// 1..900 cycles per thread and NoC delays of 0..jitter cycles per message,
// each from its own stream seeded by runSeed(i).
func (r *runner) perturb(i int, jitter uint64) error {
	seed := runSeed(i)
	rng := timing.NewRNG(seed ^ 0x7b3afc1d52e690a9)
	delays := make([]uint32, len(r.p.Threads))
	for ti := range delays {
		delays[ti] = uint32(rng.Intn(900) + 1)
	}
	wl, err := r.p.WorkloadDelays(r.cfg, delays)
	if err != nil {
		return err
	}
	if err := r.machine(wl); err != nil {
		return err
	}
	if jitter > 0 {
		jit := timing.NewRNG(seed ^ 0xa24baed4963ee407)
		r.m.SetNoCDelayChooser(func() uint64 { return jit.Uint64n(jitter + 1) })
	}
	return nil
}

// judge runs the readied machine to completion and returns both
// checkers' one verdict on the run: a clean stop with every timestamp
// invariant intact, each load and atomic position observed exactly once,
// and an SC outcome with a final memory SC allows with it. outcome and
// memk are set once the observations are well shaped.
func (r *runner) judge(runSeed uint64) (fail *Failure, outcome, memk string) {
	failf := func(kind FailKind, format string, args ...any) *Failure {
		return &Failure{Kind: kind, Protocol: r.cfg.Protocol.String(), RunSeed: runSeed, Detail: fmt.Sprintf(format, args...)}
	}
	if _, err := r.m.Run(); err != nil {
		return failf(FailRunError, "machine error: %v", err), "", ""
	}
	if err := r.inv.Err(); err != nil {
		return failf(FailRunError, "invariant: %v", err), "", ""
	}
	rec := r.rec
	if len(rec.bad) > 0 {
		return failf(FailObsShape, "observations outside the program: %s", strings.Join(rec.bad, "; ")), "", ""
	}
	for k, want := range r.exp {
		if got := rec.pos[k]; got != want {
			return failf(FailObsShape, "observation %s seen %d times, want %d", k, got, want), "", ""
		}
	}
	for k, got := range rec.pos {
		if r.exp[k] == 0 {
			return failf(FailObsShape, "unexpected observation position %s (seen %d times)", k, got), "", ""
		}
	}

	outcome = CanonOutcome(rec.entries)
	final := make([]uint64, r.p.Lines)
	for l := range final {
		final[l] = r.m.ReadLine(Base + uint64(l))
	}
	memk = memKey(final)
	if !r.set.AllowsOutcome(outcome) {
		return failf(FailOutcome, "observed {%s}, not among %d SC outcomes%s",
			outcome, len(r.set.Outcomes), nearestOutcomes(r.set, 4)), outcome, memk
	}
	if !r.set.AllowsFinal(outcome, memk) {
		allowed := make([]string, 0, len(r.set.Outcomes[outcome]))
		for k := range r.set.Outcomes[outcome] {
			allowed = append(allowed, "["+k+"]")
		}
		sort.Strings(allowed)
		return failf(FailFinalMem, "final memory [%s] with outcome {%s}; SC allows only %s",
			memk, outcome, strings.Join(allowed, " ")), outcome, memk
	}
	return nil, outcome, memk
}

// nearestOutcomes renders a few allowed outcomes for failure reports.
func nearestOutcomes(set *SCSet, n int) string {
	keys := make([]string, 0, len(set.Outcomes))
	for k := range set.Outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if len(keys) > n {
		keys = keys[:n]
	}
	for i, k := range keys {
		keys[i] = "{" + k + "}"
	}
	return "; e.g. " + strings.Join(keys, " ")
}

// FuzzSeed generates the program for a fuzzing seed and checks it.
// Returns the program (for shrinking/reporting), the failure if any, and
// an error when the check could not run.
func FuzzSeed(seed uint64, opts Options) (*Prog, *Failure, error) {
	p := Generate(seed, opts.Gen)
	fail, err := CheckProg(p, opts)
	return p, fail, err
}
