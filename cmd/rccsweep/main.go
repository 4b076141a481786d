// Command rccsweep runs parameter sweeps around the paper's design points:
// fixed RCC lease values (the paper notes the spread among fixed leases is
// small because logical time self-scales — Sec. III-E), warps per SM (the
// TLP that hides SC stalls), the TC lease the baselines depend on, and the
// timestamp width behind the Sec. III-D rollover mechanism.
//
//	rccsweep [-bench BH] [-scale f] [-j N] [-progress] [-cache-dir dir]
//	         [-trace file [-trace-format jsonl|perfetto] [-metrics-interval N]]
//	         [-cpuprofile file] [-memprofile file] <sweep>
//
// Sweeps: lease, warps, tclease, tsbits, sched. Sweep points are
// independent simulations; -j runs up to N of them concurrently
// (0 = one per CPU) with output identical to a sequential run. -trace
// captures every point's event stream: each point runs against its own
// buffering bus and the buffers are replayed into the output file in
// point order, so the trace is byte-identical for any -j.
//
// -cache-dir memoizes finished points in a content-addressed on-disk
// cache keyed by (binary behaviour digest, benchmark, config); re-running
// an interrupted or repeated sweep replays hits without simulating, with
// output byte-identical to a cold run. Each point is written atomically
// as it finishes, so an interrupted sweep resumes from every finished
// point.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"

	"rccsim/internal/config"
	"rccsim/internal/experiments"
	"rccsim/internal/ledger"
	"rccsim/internal/obs"
	"rccsim/internal/resultcache"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

var (
	bench    = flag.String("bench", "BH", "benchmark to sweep")
	scale    = flag.Float64("scale", 0.5, "workload scale")
	jobs     = flag.Int("j", 0, "concurrent simulations (0 = one per CPU, 1 = sequential)")
	progress = flag.Bool("progress", false, "report sweep progress (points done/total, ETA) on stderr")

	serveAddr = flag.String("serve", "", "serve live introspection (/metrics, /runs, /ledger, /healthz, /debug/pprof) on this address, e.g. :8080")
	ledgerDir = flag.String("ledger", "", "append every sweep point (full wire stats, keyed label@point) to the run ledger in this directory")
	hotspots  = flag.Int("hotspots", 0, "print the top-N contended cache lines, merged across all sweep points (0 = off)")

	cacheDir = flag.String("cache-dir", "", "content-addressed result cache directory: hits replay stored stats instead of simulating, making sweeps resumable")

	traceOut    = flag.String("trace", "", "write every point's event trace to this file")
	traceFormat = flag.String("trace-format", "jsonl", "event trace format: jsonl or perfetto")
	metricsIvl  = flag.Uint64("metrics-interval", 0, "emit stats deltas into the trace every N cycles (0 = off)")

	cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

func main() {
	flag.Parse()
	os.Exit(realMain())
}

func realMain() int {
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rccsweep [-bench BH] [-scale f] [-j N] [-cache-dir dir] <sweep>")
		fmt.Fprintln(os.Stderr, "sweeps: lease warps tclease tsbits sched")
		return 2
	}
	b, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		return 1
	}
	// Cache hits never run a local machine, so there is nothing for a
	// trace bus or heat sketch to hook.
	if *cacheDir != "" && (*traceOut != "" || *hotspots > 0) {
		fmt.Fprintln(os.Stderr, "rccsweep: -trace and -hotspots are incompatible with -cache-dir (cache hits do not run a machine)")
		return 2
	}
	stopProfiles, err := startProfiles()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
		return 1
	}
	defer stopProfiles()

	base := config.Default()
	base.Scale = *scale

	var opts []experiments.RunOpt
	var cache *resultcache.Cache
	if *cacheDir != "" {
		cache, err = resultcache.Open(*cacheDir, sim.GoldenDigest())
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
			return 1
		}
		opts = append(opts, experiments.WithCache(cache))
	}

	var led *ledger.Ledger
	if *ledgerDir != "" {
		led, err = ledger.Open(*ledgerDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
			return 1
		}
	}
	var tracker *obs.Tracker
	if *serveAddr != "" {
		tracker = obs.NewTracker(obs.NewRegistry())
		addr, err := obs.Serve(*serveAddr, obs.Mounts{
			Registry: tracker.Registry(), Tracker: tracker, Ledger: ledger.Handler(led),
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "rccsweep: serving introspection on http://%s\n", addr)
	}
	var coll *ledger.Collector
	if led != nil {
		coll = ledger.NewCollector()
	}
	if tracker != nil {
		opts = append(opts,
			experiments.WithPointBegin(func(_ int, label string) { tracker.Begin(label) }))
	}
	if tracker != nil || coll != nil {
		// WithPointDone is a single slot: fan out to the tracker and the
		// ledger collector from one callback. The collector keys by
		// label@point (input-order index), so the recorded entry is
		// identical for any -j and for cache hits.
		opts = append(opts, experiments.WithPointDone(func(point int, label string, st *stats.Run) {
			if tracker != nil {
				tracker.Done(label, st)
			}
			if coll != nil {
				coll.ObservePoint(point, label, st)
			}
		}))
	}
	// Progress consumers share the single WithProgress slot: the stderr
	// line and the tracker's total both hang off the same callback.
	var progFns []func(done, total int, label string)
	if *progress {
		progFns = append(progFns, experiments.StderrProgress(os.Stderr, "rccsweep "+flag.Arg(0)))
	}
	if tracker != nil {
		progFns = append(progFns, func(_, total int, _ string) { tracker.SetTotal(total) })
	}
	if tracker != nil && cache != nil {
		reg := tracker.Registry()
		sHits := reg.Register("rccsim_cache_hits", "Result-cache hits (points replayed from disk)", obs.Gauge)
		sMiss := reg.Register("rccsim_cache_misses", "Result-cache misses (points simulated)", obs.Gauge)
		sRatio := reg.Register("rccsim_cache_hit_ratio", "Result-cache hit ratio for this sweep", obs.Gauge)
		progFns = append(progFns, func(_, _ int, _ string) {
			sHits.Set(cache.Hits())
			sMiss.Set(cache.Misses())
			sRatio.SetFloat(cache.HitRatio())
		})
	}
	if len(progFns) > 0 {
		fns := progFns
		opts = append(opts, experiments.WithProgress(func(done, total int, label string) {
			for _, f := range fns {
				f(done, total, label)
			}
		}))
	}
	var heats *pointHeats
	if *hotspots > 0 {
		heats = newPointHeats(4 * *hotspots)
		opts = append(opts, experiments.WithPointHeat(heats.heat))
	}
	var pts *pointTraces
	var traceFile *os.File
	var dst trace.Sink
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
			return 1
		}
		defer traceFile.Close()
		switch *traceFormat {
		case "jsonl":
			dst = trace.NewJSONLSink(traceFile)
		case "perfetto":
			dst = trace.NewPerfettoSink(traceFile)
		default:
			fmt.Fprintf(os.Stderr, "rccsweep: unknown -trace-format %q (want jsonl or perfetto)\n", *traceFormat)
			return 1
		}
		pts = newPointTraces()
		opts = append(opts, experiments.WithPointTracer(pts.bus))
	} else if *metricsIvl > 0 {
		fmt.Fprintln(os.Stderr, "rccsweep: -metrics-interval requires -trace")
		return 1
	}

	switch flag.Arg(0) {
	case "lease":
		err = sweepLease(base, b, *jobs, opts)
	case "warps":
		err = sweepWarps(base, b, *jobs, opts)
	case "tclease":
		err = sweepTCLease(base, b, *jobs, opts)
	case "tsbits":
		err = sweepTSBits(base, b, *jobs, opts)
	case "sched":
		err = sweepSched(base, b, *jobs, opts)
	default:
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", flag.Arg(0))
		return 1
	}
	if cache != nil {
		fmt.Fprintf(os.Stderr, "rccsweep: cache %s: %d hits, %d misses, %d stored (hit ratio %.0f%%)\n",
			*cacheDir, cache.Hits(), cache.Misses(), cache.Puts(), 100*cache.HitRatio())
	}
	if err == nil && pts != nil {
		err = pts.replay(dst)
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && heats != nil {
		fmt.Printf("\ntop %d contended lines (merged across %d points)\n", *hotspots, len(heats.m))
		heats.merged().WriteTable(os.Stdout, *hotspots)
	}
	if err == nil && coll != nil && coll.Len() > 0 {
		e := &ledger.Entry{
			Kind:  ledger.KindSweep,
			Label: fmt.Sprintf("rccsweep %s %s", flag.Arg(0), b.Name),
			Time:  ledger.Now(),
			Host:  ledger.Fingerprint("."),
			Runs:  coll.RunRecs(),
		}
		prevID, prev, perr := led.Resolve("@-1")
		id, aerr := led.Append(e)
		if aerr != nil {
			err = aerr
		} else {
			fmt.Fprintf(os.Stderr, "rccsweep: ledger: recorded %d point(s) as %s\n", coll.Len(), ledger.ShortID(id))
			if perr == nil {
				d := ledger.Compute(prevID, prev, id, e, ledger.Options{})
				if tracker != nil {
					ledger.PublishRegression(tracker.Registry(), d)
				}
				if !d.Ok() {
					fmt.Fprintf(os.Stderr, "rccsweep: ledger: vs %s: REGRESSED (run rccdiff %s %s for attribution)\n",
						ledger.ShortID(prevID), ledger.ShortID(prevID)[:8], ledger.ShortID(id)[:8])
				}
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// pointHeats hands one contention sketch to each sweep point and merges
// them in point order afterwards, so the hotspot table is independent of
// worker scheduling (same discipline as pointTraces).
type pointHeats struct {
	k  int
	mu sync.Mutex
	m  map[int]*obs.Heat
}

func newPointHeats(k int) *pointHeats {
	if k < 64 {
		k = 64 // track more than shown so the displayed tail is trustworthy
	}
	return &pointHeats{k: k, m: map[int]*obs.Heat{}}
}

func (p *pointHeats) heat(point int) *obs.Heat {
	h := obs.NewHeat(p.k)
	p.mu.Lock()
	p.m[point] = h
	p.mu.Unlock()
	return h
}

func (p *pointHeats) merged() *obs.Heat {
	out := obs.NewHeat(p.k)
	for i := 0; i < len(p.m); i++ {
		out.Merge(p.m[i])
	}
	return out
}

// startProfiles starts the pprof captures requested by -cpuprofile and
// -memprofile and returns the function that finalizes them.
func startProfiles() (stop func(), err error) {
	var cpuf *os.File
	if *cpuprofile != "" {
		cpuf, err = os.Create(*cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuf); err != nil {
			cpuf.Close()
			return nil, err
		}
	}
	return func() {
		if cpuf != nil {
			pprof.StopCPUProfile()
			cpuf.Close()
		}
		if *memprofile != "" {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
				return
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
			}
			f.Close()
		}
	}, nil
}

// pointTraces hands one buffering bus to each sweep point (called from
// worker goroutines) and replays the buffers in point order afterwards,
// keeping the trace file independent of worker scheduling.
type pointTraces struct {
	mu    sync.Mutex
	buses map[int]*trace.Bus
	bufs  map[int]*trace.BufferSink
}

func newPointTraces() *pointTraces {
	return &pointTraces{buses: map[int]*trace.Bus{}, bufs: map[int]*trace.BufferSink{}}
}

func (p *pointTraces) bus(point int) *trace.Bus {
	buf := &trace.BufferSink{}
	var sinks []trace.Sink
	if *metricsIvl > 0 {
		sinks = append(sinks, trace.NewIntervalSink(buf, *metricsIvl))
	}
	sinks = append(sinks, buf)
	b := trace.NewBus(sinks...)
	p.mu.Lock()
	p.buses[point] = b
	p.bufs[point] = buf
	p.mu.Unlock()
	return b
}

// replay closes each point's bus (flushing its final interval-metrics
// row into the buffer) and streams the buffers into dst in point order,
// separated by "sweep-point" marker events.
func (p *pointTraces) replay(dst trace.Sink) error {
	for i := 0; i < len(p.bufs); i++ {
		if err := p.buses[i].Close(); err != nil {
			return err
		}
		dst.Event(&trace.Event{Kind: trace.KindMetrics, Label: "sweep-point",
			Src: -1, Dst: -1, Warp: -1, Val: uint64(i)})
		p.bufs[i].Replay(dst)
	}
	return nil
}

func sweepLease(base config.Config, b workload.Benchmark, jobs int, opts []experiments.RunOpt) error {
	fmt.Printf("RCC fixed-lease sweep on %s (predictor off)\n", b.Name)
	fmt.Printf("%8s %10s %10s %12s\n", "lease", "cycles", "expired", "renewed")
	rows, err := experiments.LeaseSweep(base, b, []uint64{8, 32, 64, 128, 512, 2048}, jobs, opts...)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %10d %10d %12d\n", r.Lease, r.Cycles, r.Expired, r.Renewed)
	}
	return nil
}

func sweepWarps(base config.Config, b workload.Benchmark, jobs int, opts []experiments.RunOpt) error {
	fmt.Printf("warps-per-SM sweep on %s (RCC, SC)\n", b.Name)
	fmt.Printf("%8s %10s %8s %16s\n", "warps", "cycles", "IPC", "SC stall cycles")
	rows, err := experiments.WarpSweep(base, b, []int{4, 8, 16, 32, 48}, jobs, opts...)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %10d %8.2f %16d\n", r.Warps, r.Cycles, r.IPC, r.StallCycles)
	}
	return nil
}

func sweepTCLease(base config.Config, b workload.Benchmark, jobs int, opts []experiments.RunOpt) error {
	fmt.Printf("TC-Strong lease sweep on %s\n", b.Name)
	fmt.Printf("%8s %10s %16s %12s\n", "lease", "cycles", "store stall cyc", "L1 hit rate")
	rows, err := experiments.TCLeaseSweep(base, b, []uint64{100, 200, 400, 800, 1600}, jobs, opts...)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %10d %16d %11.1f%%\n", r.Lease, r.Cycles, r.StoreStalls, 100*r.L1HitRate)
	}
	return nil
}

func sweepTSBits(base config.Config, b workload.Benchmark, jobs int, opts []experiments.RunOpt) error {
	fmt.Printf("RCC timestamp-width sweep on %s\n", b.Name)
	fmt.Printf("%8s %10s %10s %14s\n", "bits", "cycles", "rollovers", "stall cycles")
	rows, err := experiments.TSBitsSweep(base, b, []uint{14, 16, 18, 20, 24, 32}, jobs, opts...)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%8d %10d %10d %14d\n", r.Bits, r.Cycles, r.Rollovers, r.Stall)
	}
	return nil
}

func sweepSched(base config.Config, b workload.Benchmark, jobs int, opts []experiments.RunOpt) error {
	fmt.Printf("warp-scheduler sweep on %s\n", b.Name)
	fmt.Printf("%6s %8s %10s %8s %16s\n", "sched", "proto", "cycles", "IPC", "SC stall cycles")
	rows, err := experiments.SchedulerSweep(base, b,
		[]config.Protocol{config.MESI, config.TCS, config.RCC}, jobs, opts...)
	if err != nil {
		return err
	}
	for _, r := range rows {
		fmt.Printf("%6v %8v %10d %8.2f %16d\n", r.Scheduler, r.Protocol, r.Cycles, r.IPC, r.StallCycles)
	}
	return nil
}
