package check

import (
	"encoding/binary"
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
// Observations are kept as binary entries, sorted, and counted per
// program position in a dense slice; text is rendered only for reports
// and for outcomes a runner has not seen before (runner.judge).
// A runner keeps one recorder for its machine and resets it between runs;
// the machine calls it from the one goroutine that steps it.
type recorder struct {
	threadOf []int32 // sm*maxWarps + warp -> program thread, -1 if none
	maxWarps int
	lines    int     // program lines: a position is op*lines + line past its thread's base
	posBase  []int   // first position of each thread; posBase[len(threads)] ends the last
	exp      []int32 // observations a clean run makes per position
	expTotal int
	pos      []int32 // observations per position this run
	entries  []obs   // every observation, in obs order
	bad      []string
}

// obs is one observation in program coordinates: thread ti's operation op
// read val from program line. Entries order by (ti, op, line, val), the
// program order of their positions.
type obs struct {
	ti, op    uint32
	line, val uint64
}

func (a obs) less(b obs) bool {
	if a.ti != b.ti {
		return a.ti < b.ti
	}
	if a.op != b.op {
		return a.op < b.op
	}
	if a.line != b.line {
		return a.line < b.line
	}
	return a.val < b.val
}

// appendObs appends the entry count and the entries as fixed-size binary
// words: the form fingerprints hash and the runner's text caches are
// keyed by.
func appendObs(b []byte, entries []obs) []byte {
	le := binary.LittleEndian
	b = le.AppendUint32(b, uint32(len(entries)))
	for _, o := range entries {
		b = le.AppendUint32(b, o.ti)
		b = le.AppendUint32(b, o.op)
		b = le.AppendUint64(b, o.line)
		b = le.AppendUint64(b, o.val)
	}
	return b
}

func newRecorder(p *Prog, maxWarps int) *recorder {
	sms, _ := p.MachineShape()
	r := &recorder{
		threadOf: make([]int32, sms*maxWarps),
		maxWarps: maxWarps,
		lines:    p.Lines,
		posBase:  make([]int, len(p.Threads)+1),
	}
	for i := range r.threadOf {
		r.threadOf[i] = -1
	}
	for ti, th := range p.Threads {
		r.threadOf[th.SM*maxWarps+th.Warp] = int32(ti)
		r.posBase[ti+1] = r.posBase[ti] + len(th.Ops)*p.Lines
	}
	// A clean run observes each load line and each atomic exactly once.
	r.exp = make([]int32, r.posBase[len(p.Threads)])
	r.pos = make([]int32, len(r.exp))
	for ti, th := range p.Threads {
		for oi, op := range th.Ops {
			if op.Kind == workload.OpLoad || op.Kind == workload.OpAtomic {
				for _, l := range op.Lines {
					r.exp[r.position(ti, oi, l)]++
					r.expTotal++
				}
			}
		}
	}
	return r
}

// reset clears the observations for a new run of the same program.
func (r *recorder) reset() {
	r.entries = r.entries[:0]
	clear(r.pos)
	r.bad = r.bad[:0]
}

// position returns the dense index of thread ti's operation op on line,
// or -1 when the program has no such operation or line.
func (r *recorder) position(ti, op int, line uint64) int {
	base := r.posBase[ti] + op*r.lines
	if op < 0 || line >= uint64(r.lines) || base >= r.posBase[ti+1] {
		return -1
	}
	return base + int(line)
}

// LoadObserved implements gpu.Observer.
func (r *recorder) LoadObserved(sm, warp, pc int, line, val uint64) {
	ti := int32(-1)
	if k := sm*r.maxWarps + warp; sm >= 0 && warp >= 0 && warp < r.maxWarps && k < len(r.threadOf) {
		ti = r.threadOf[k]
	}
	if ti < 0 || pc < 1 || line < Base {
		r.bad = append(r.bad, fmt.Sprintf("sm=%d warp=%d pc=%d line=%d val=%d", sm, warp, pc, line, val))
		return
	}
	o := obs{ti: uint32(ti), op: uint32(pc - 1), line: line - Base, val: val}
	if i := r.position(int(ti), pc-1, o.line); i >= 0 {
		r.pos[i]++
	}
	// Insertion keeps the entries sorted; a run makes a handful.
	i := len(r.entries)
	r.entries = append(r.entries, o)
	for ; i > 0 && o.less(r.entries[i-1]); i-- {
		r.entries[i] = r.entries[i-1]
	}
	r.entries[i] = o
}

// shapeError describes the first way the observations differ from one
// per load line and atomic, or returns "" when they match: observations
// outside the program, then the first expected position seen a wrong
// number of times, then the first unexpected position, both in program
// order.
func (r *recorder) shapeError() string {
	if len(r.bad) > 0 {
		return "observations outside the program: " + strings.Join(r.bad, "; ")
	}
	for ti := 0; ti+1 < len(r.posBase); ti++ {
		for i := r.posBase[ti]; i < r.posBase[ti+1]; i++ {
			if want := r.exp[i]; want > 0 && r.pos[i] != want {
				k := i - r.posBase[ti]
				return fmt.Sprintf("observation %s seen %d times, want %d",
					posKey(ti, k/r.lines, uint64(k%r.lines)), r.pos[i], want)
			}
		}
	}
	if len(r.entries) == r.expTotal {
		return "" // every expected position matched, so no entry is extra
	}
	for i, o := range r.entries {
		if p := r.position(int(o.ti), int(o.op), o.line); p >= 0 && r.exp[p] > 0 {
			continue
		}
		n := 1
		for _, next := range r.entries[i+1:] {
			if next.ti != o.ti || next.op != o.op || next.line != o.line {
				break
			}
			n++
		}
		return fmt.Sprintf("unexpected observation position %s (seen %d times)",
			posKey(int(o.ti), int(o.op), o.line), n)
	}
	return ""
}

func posKey(ti, opIdx int, line uint64) string {
	return fmt.Sprintf("T%d#%d@%d", ti, opIdx, line)
}

// text renders the observations as their canonical outcome key.
func (r *recorder) text() string {
	keys := make([]string, len(r.entries))
	for i, o := range r.entries {
		keys[i] = ObsKey(int(o.ti), int(o.op), o.line, o.val)
	}
	return CanonOutcome(keys)
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

	m   *sim.Machine // nil until the first run
	rec *recorder
	inv *trace.InvariantSink
	bus *trace.Bus

	// The outcome and final-memory texts of the runs so far, keyed by
	// their binary form: a run renders text only for an observation set
	// or memory image no earlier run produced. key and final are scratch.
	outcomes map[string]string
	mems     map[string]string
	key      []byte
	final    []uint64
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
	return runner{p: p, cfg: cfg, set: set, final: make([]uint64, p.Lines)}
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
	if detail := r.rec.shapeError(); detail != "" {
		return failf(FailObsShape, "%s", detail), "", ""
	}

	outcome, memk = r.outcomeText(), r.memText()
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

// outcomeText returns the run's canonical outcome key, rendered only for
// an observation set this runner has not seen.
func (r *runner) outcomeText() string {
	r.key = appendObs(r.key[:0], r.rec.entries)
	if s, ok := r.outcomes[string(r.key)]; ok {
		return s
	}
	if r.outcomes == nil {
		r.outcomes = make(map[string]string)
	}
	s := r.rec.text()
	r.outcomes[string(r.key)] = s
	return s
}

// memText returns the final memory key of the run, rendered only for an
// image this runner has not seen.
func (r *runner) memText() string {
	b := r.key[:0]
	for l := range r.final {
		r.final[l] = r.m.ReadLine(Base + uint64(l))
		b = binary.LittleEndian.AppendUint64(b, r.final[l])
	}
	r.key = b
	if s, ok := r.mems[string(b)]; ok {
		return s
	}
	if r.mems == nil {
		r.mems = make(map[string]string)
	}
	s := memKey(r.final)
	r.mems[string(b)] = s
	return s
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
