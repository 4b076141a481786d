// Package rccsim is a cycle-level GPU memory-system simulator built to
// reproduce "Efficient Sequential Consistency in GPUs via Relativistic
// Cache Coherence" (Ren & Lis, HPCA 2017).
//
// The simulator models a Fermi-class GPU (16 SMs × 48 warps, write-through
// L1s, an 8-partition write-back L2, dual-crossbar NoC, GDDR DRAM) under
// five coherence protocols:
//
//   - RCC, the paper's contribution: logical-timestamp leases with instant
//     write permissions, sequentially consistent (plus RCC-WO, its weakly
//     ordered variant);
//   - TC-Strong and TC-Weak, the physical-timestamp baselines;
//   - MESI, a directory protocol on write-through L1s;
//   - SC-IDEAL, MESI with free, instant coherence permissions.
//
// The quickest way in:
//
//	cfg := rccsim.DefaultConfig()
//	cfg.Protocol = rccsim.RCC
//	res, err := rccsim.Run(cfg, "BFS")
//
// Every figure and table of the paper's evaluation can be regenerated via
// Experiments (or the cmd/rccbench tool).
package rccsim

import (
	"fmt"
	"io"

	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/experiments"
	"rccsim/internal/gpu"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/report"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// Config is the machine description; DefaultConfig matches Table III of
// the paper.
type Config = config.Config

// Protocol selects the coherence protocol.
type Protocol = config.Protocol

// Protocol values.
const (
	MESI    = config.MESI
	TCS     = config.TCS
	TCW     = config.TCW
	RCC     = config.RCC
	RCCWO   = config.RCCWO
	SCIdeal = config.SCIdeal
)

// Stats is the counter set a run produces.
type Stats = stats.Run

// OpClass indexes the per-operation latency accumulators in Stats
// (Latency, LatencyHist, SCStallCycles).
type OpClass = stats.OpClass

// OpClass values.
const (
	OpLoad   = stats.OpLoad
	OpStore  = stats.OpStore
	OpAtomic = stats.OpAtomic
)

// EnergyBreakdown is the interconnect energy model output (nanojoules).
type EnergyBreakdown = energy.Breakdown

// Benchmark is one of the twelve Table IV workloads.
type Benchmark = workload.Benchmark

// Program is a generated kernel (per-SM, per-warp instruction traces).
type Program = workload.Program

// Result is a completed simulation.
type Result = sim.Result

// Machine is a fully assembled simulated GPU; use it directly for
// cycle-stepped inspection (see cmd/rcctrace), or Run for whole programs.
type Machine = sim.Machine

// Observer receives every load result during simulation (used for
// consistency checking); pass nil when only timing matters.
type Observer = gpu.Observer

// Runner memoizes benchmark runs and regenerates the paper's figures.
type Runner = experiments.Runner

// DefaultConfig returns the Table III machine (GTX 480 class).
func DefaultConfig() Config { return config.Default() }

// SmallConfig returns a reduced machine for quick experiments and tests.
func SmallConfig() Config { return config.Small() }

// Benchmarks lists the twelve workloads of Table IV.
func Benchmarks() []Benchmark { return workload.All() }

// BenchmarkByName finds a workload by its paper abbreviation (BH, BFS,
// CL, DLB, STN, VPR, HSP, KMN, LPS, NDL, SR, LUD).
func BenchmarkByName(name string) (Benchmark, bool) { return workload.ByName(name) }

// TraceBus is the cycle-stamped structured event bus threaded through
// every machine component: message sends/deliveries with their logical
// timestamps, L1/L2 transitions, lease lifecycle, clock advances,
// rollover phases, SC stall intervals, DRAM commands. A nil *TraceBus
// disables tracing at zero cost; see internal/trace for the event
// vocabulary and determinism contract.
type TraceBus = trace.Bus

// TraceEvent is one cycle-stamped observation on a TraceBus.
type TraceEvent = trace.Event

// TraceSink consumes trace events (JSONL, Perfetto, invariant checking,
// in-memory buffering, interval metrics).
type TraceSink = trace.Sink

// NewTraceBus builds an event bus over the given sinks.
func NewTraceBus(sinks ...TraceSink) *TraceBus { return trace.NewBus(sinks...) }

// NewJSONLTraceSink writes one fixed-field-order JSON object per event.
func NewJSONLTraceSink(w io.Writer) TraceSink { return trace.NewJSONLSink(w) }

// NewPerfettoTraceSink writes Chrome trace-event JSON loadable in
// ui.perfetto.dev; the timeline axis is the simulated cycle.
func NewPerfettoTraceSink(w io.Writer) TraceSink { return trace.NewPerfettoSink(w) }

// NewInvariantTraceSink checks the RCC/Tardis timestamp invariants over
// the event stream (ver <= exp on every lease, monotone L2 versions and
// core clocks); the first violation is reported via onFail (may be nil)
// and by the bus's Close/Err.
func NewInvariantTraceSink(onFail func(error)) TraceSink { return trace.NewInvariantSink(onFail) }

// NewIntervalTraceSink snapshots stats deltas into dst every interval
// cycles as metrics events. Register it on the bus before dst.
func NewIntervalTraceSink(dst TraceSink, interval uint64) TraceSink {
	return trace.NewIntervalSink(dst, interval)
}

// Run generates benchmark name under cfg, simulates it to completion, and
// returns the statistics and interconnect energy.
func Run(cfg Config, name string) (Result, error) {
	return RunTraced(cfg, name, nil)
}

// RunTraced is Run with an event bus attached for the duration of the
// simulation (nil tr is equivalent to Run). The caller keeps ownership
// of the bus and closes it after the run.
func RunTraced(cfg Config, name string, tr *TraceBus) (Result, error) {
	b, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("rccsim: unknown benchmark %q", name)
	}
	return sim.RunBenchmarkTraced(cfg, b, tr)
}

// RunProgram simulates an arbitrary user-supplied program. ob may be nil.
func RunProgram(cfg Config, prog *Program, ob Observer) (*Stats, error) {
	m, err := sim.New(cfg, prog, ob)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// NewMachine assembles a machine without running it (for cycle-stepping).
func NewMachine(cfg Config, prog *Program, ob Observer) (*Machine, error) {
	return sim.New(cfg, prog, ob)
}

// CycleCat is one category of the top-down cycle account: every SM-cycle
// of a run is attributed to exactly one (Stats.CycleAccount sums to
// Cycles × NumSMs).
type CycleCat = stats.CycleCat

// CycleCats enumerates the accounting categories in display order.
func CycleCats() []CycleCat { return stats.CycleCats() }

// Heat is a bounded top-K sketch of per-cache-line contention (reads,
// writes, renewals, version bumps, expiry waits, cross-SM ping-pong).
// A nil *Heat disables sampling at (near) zero cost.
type Heat = obs.Heat

// NewHeat returns a contention sketch tracking about k lines.
func NewHeat(k int) *Heat { return obs.NewHeat(k) }

// MetricsRegistry collects named series rendered as OpenMetrics text by
// the introspection server's /metrics endpoint.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// RunTracker aggregates experiment progress (points done, ETA, simulated
// cycles/s, cycle-account totals) into a MetricsRegistry and serves /runs.
type RunTracker = obs.Tracker

// NewRunTracker wires a tracker into reg. Hook it to a Runner via the
// Started/Observe fields, or to sweeps via the WithPoint* options.
func NewRunTracker(reg *MetricsRegistry) *RunTracker { return obs.NewTracker(reg) }

// ServeIntrospection serves /metrics, /runs, /healthz and /debug/pprof on
// addr in a background goroutine, returning the bound address. tr may be
// nil (no /runs endpoint).
func ServeIntrospection(addr string, reg *MetricsRegistry, tr *RunTracker) (string, error) {
	return obs.Serve(addr, obs.Mounts{Registry: reg, Tracker: tr})
}

// RunObserved is RunTraced with a contention sketch also attached; either
// tr or heat may be nil.
func RunObserved(cfg Config, name string, tr *TraceBus, heat *Heat) (Result, error) {
	return RunSpanned(cfg, name, tr, heat, nil)
}

// SpanRecorder samples causal spans: per-op latency waterfalls whose
// segments (issue, L1, MSHR coalescing, NoC queueing/wire, L2 pipeline,
// protocol actions, DRAM, reply) sum exactly to the op's end-to-end
// latency, dependency edges between ops (coalesced misses, lease waits,
// barriers), and the critical path through them. A nil *SpanRecorder
// disables recording at zero cost.
type SpanRecorder = span.Recorder

// SpanSummary is the aggregate a SpanRecorder reports: per-segment
// percentile waterfalls, total blame per segment, the critical path, and
// the slowest sampled ops. Served as JSON on the introspection server's
// /spans endpoint.
type SpanSummary = span.Summary

// NewSpanRecorder returns a recorder sampling every Nth memory operation
// (deterministically by request ID, so identical runs sample identical
// ops). every <= 0 returns nil (recording off).
func NewSpanRecorder(every int) *SpanRecorder { return span.NewRecorder(every) }

// RunSpanned is RunObserved with a causal-span recorder also attached; any
// of tr, heat, sp may be nil. Attaching a recorder never changes simulated
// results.
func RunSpanned(cfg Config, name string, tr *TraceBus, heat *Heat, sp *SpanRecorder) (Result, error) {
	b, ok := workload.ByName(name)
	if !ok {
		return Result{}, fmt.Errorf("rccsim: unknown benchmark %q", name)
	}
	return sim.RunBenchmarkSpanned(cfg, b, tr, heat, sp)
}

// FormatSpans renders a recorder's summary as the report's causal-span
// section (waterfall, critical path, slowest ops); "" when empty.
func FormatSpans(cfg Config, sp *SpanRecorder, topN int) string {
	return report.FormatSpans(cfg, sp, topN)
}

// ServeIntrospectionSpans is ServeIntrospection plus a /spans endpoint
// serving sp's summary as JSON (?top=N selects the slowest-op count). A
// nil sp serves 404 on /spans.
func ServeIntrospectionSpans(addr string, reg *MetricsRegistry, tr *RunTracker, sp *SpanRecorder) (string, error) {
	return obs.Serve(addr, obs.Mounts{Registry: reg, Tracker: tr, Spans: sp})
}

// WriteCycleStacks renders st's cycle account as folded stacks
// (flamegraph.pl / speedscope input).
func WriteCycleStacks(w io.Writer, cfg Config, st *Stats) error {
	return report.CycleStacks(w, cfg, st)
}

// NewRunner returns an experiment runner over the given base machine,
// executing up to one simulation per CPU concurrently.
func NewRunner(base Config) *Runner { return experiments.NewRunner(base) }

// NewRunnerJobs returns an experiment runner executing at most jobs
// simulations concurrently (0 = one per CPU, 1 = strictly sequential).
// Results are bit-identical regardless of jobs.
func NewRunnerJobs(base Config, jobs int) *Runner { return experiments.NewRunnerJobs(base, jobs) }
