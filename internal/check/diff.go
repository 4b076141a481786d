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
	Jitter    uint64            // config.NoCJitter for every run
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

// runSeed derives the config seed of the r-th perturbed run. Replays use
// the same derivation, so a repro only records the run count.
func runSeed(r int) uint64 { return (uint64(r) + 1) * 0x9e3779b97f4a7c15 }

// recorder implements gpu.Observer, mapping machine observations back to
// program coordinates: warp (sm, w) to the thread placed there, trace pc
// to operation index (every trace carries one leading compute, so op i
// completes at pc i+1), machine line to program line (minus Base).
// Each run builds its own recorder, and the machine calls it from the one
// goroutine that steps it.
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
// means the check itself could not run (ill-formed program, enumeration
// blow-up) — not a verdict about the protocols.
func CheckProg(p *Prog, opts Options) (*Failure, error) {
	set, err := p.Enumerate(opts.Limits)
	if err != nil {
		return nil, err
	}
	exp := expectedObs(p)
	for _, proto := range opts.Protocols {
		for r := 0; r < opts.RunSeeds; r++ {
			if fail, err := runOne(p, set, exp, proto, r, opts); fail != nil || err != nil {
				return fail, err
			}
		}
	}
	return nil, nil
}

func runOne(p *Prog, set *SCSet, exp map[string]int, proto config.Protocol, r int, opts Options) (*Failure, error) {
	cfg := config.Small()
	cfg.Protocol = proto
	cfg.NumSMs, cfg.WarpsPerSM = p.MachineShape()
	cfg.Seed = runSeed(r)
	cfg.NoCJitter = opts.Jitter
	if opts.MaxCycles > 0 {
		cfg.MaxCycles = opts.MaxCycles
	}
	fail := func(kind FailKind, format string, args ...any) *Failure {
		return &Failure{Kind: kind, Protocol: proto.String(), RunSeed: cfg.Seed, Detail: fmt.Sprintf(format, args...)}
	}

	wl, err := p.Workload(cfg, timing.NewRNG(cfg.Seed^0x7b3afc1d52e690a9))
	if err != nil {
		return nil, err
	}
	rec := newRecorder(p, cfg.WarpsPerSM)
	m, err := sim.New(cfg, wl, rec)
	if err != nil {
		return nil, fmt.Errorf("check: building machine: %w", err)
	}
	// The invariant sink checks leases, L2 versions and core clocks over
	// the live event stream.
	inv := trace.NewInvariantSink(nil)
	m.Attach(trace.Observers{Tr: trace.NewBus(inv)})

	if _, err := m.Run(); err != nil {
		return fail(FailRunError, "machine error: %v", err), nil
	}
	if err := inv.Err(); err != nil {
		return fail(FailRunError, "invariant: %v", err), nil
	}

	if len(rec.bad) > 0 {
		return fail(FailObsShape, "observations outside the program: %s", strings.Join(rec.bad, "; ")), nil
	}
	for k, want := range exp {
		if got := rec.pos[k]; got != want {
			return fail(FailObsShape, "observation %s seen %d times, want %d", k, got, want), nil
		}
	}
	for k, got := range rec.pos {
		if exp[k] == 0 {
			return fail(FailObsShape, "unexpected observation position %s (seen %d times)", k, got), nil
		}
	}

	outcome := CanonOutcome(rec.entries)
	if !set.AllowsOutcome(outcome) {
		return fail(FailOutcome, "observed {%s}, not among %d SC outcomes%s",
			outcome, len(set.Outcomes), nearestOutcomes(set, 4)), nil
	}
	final := make([]uint64, p.Lines)
	for l := range final {
		final[l] = m.ReadLine(Base + uint64(l))
	}
	mk := memKey(final)
	if !set.AllowsFinal(outcome, mk) {
		allowed := make([]string, 0, len(set.Outcomes[outcome]))
		for k := range set.Outcomes[outcome] {
			allowed = append(allowed, "["+k+"]")
		}
		sort.Strings(allowed)
		return fail(FailFinalMem, "final memory [%s] with outcome {%s}; SC allows only %s",
			mk, outcome, strings.Join(allowed, " ")), nil
	}
	return nil, nil
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
