// Observability hooks for the experiment harness: sweep/preload progress
// reporting, per-point event tracing, and per-point contention sampling.
//
// Determinism note: progress callbacks fire from worker goroutines in
// completion order (non-deterministic under jobs > 1) and must only drive
// side channels like stderr. Trace buses and heat sketches, by contrast,
// are handed out one per point and each is driven only by that point's
// single-threaded machine, so replaying/merging them in input order after
// the sweep yields output independent of the jobs setting.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"

	"rccsim/internal/obs"
	"rccsim/internal/resultcache"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
)

// RunOpt configures one sweep/runAll invocation.
type RunOpt func(*runOpts)

type runOpts struct {
	progress func(done, total int, label string)
	begin    func(point int, label string)
	done     func(point int, label string, st *stats.Run)
	tracer   func(point int) *trace.Bus
	heat     func(point int) *obs.Heat
	cache    *resultcache.Cache
}

func applyOpts(opts []RunOpt) runOpts {
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	return o
}

// WithProgress invokes fn after each completed point with the number of
// points finished so far, the total, and the completed point's
// "benchmark/protocol" label. fn must be safe to call from multiple
// goroutines (StderrProgress is).
func WithProgress(fn func(done, total int, label string)) RunOpt {
	return func(o *runOpts) { o.progress = fn }
}

// WithPointBegin invokes fn when point i starts executing (e.g. to mark it
// in-flight in an obs.Tracker). fn runs on worker goroutines.
func WithPointBegin(fn func(point int, label string)) RunOpt {
	return func(o *runOpts) { o.begin = fn }
}

// WithPointDone invokes fn when point i completes, with its finished stats
// (nil if the run failed). fn runs on worker goroutines.
func WithPointDone(fn func(point int, label string, st *stats.Run)) RunOpt {
	return func(o *runOpts) { o.done = fn }
}

// WithPointTracer attaches the event bus returned by fn(i) to point i's
// machine for the duration of its run. fn is called from worker
// goroutines but each returned bus is used by exactly one machine;
// returning a shared bus for two points is a data race. Hand out one
// buffering bus per point (trace.BufferSink) and replay them in point
// order after the sweep to keep trace output independent of jobs.
func WithPointTracer(fn func(point int) *trace.Bus) RunOpt {
	return func(o *runOpts) { o.tracer = fn }
}

// WithPointHeat attaches the contention sketch returned by fn(i) to point
// i's machine. The same ownership rule as WithPointTracer applies: one
// sketch per point, merged (obs.Heat.Merge) in point order afterwards.
func WithPointHeat(fn func(point int) *obs.Heat) RunOpt {
	return func(o *runOpts) { o.heat = fn }
}

// StderrProgress returns a progress callback that rewrites one status
// line on w (normally os.Stderr) with points done/total, throughput, a
// wall-clock ETA, and the label of the point that just finished. Rates and
// the ETA come from the monotonic clock reading carried by time.Time, so
// wall-clock steps (NTP, suspend) cannot produce negative or absurd ETAs.
// It is mutex-guarded and so safe for concurrent workers; wall-clock time
// never influences simulation results, only this side channel.
func StderrProgress(w io.Writer, label string) func(done, total int, point string) {
	var mu sync.Mutex
	start := time.Now()
	return func(done, total int, point string) {
		mu.Lock()
		defer mu.Unlock()
		elapsed := time.Since(start)
		eta := "?"
		pps := 0.0
		if done > 0 && elapsed > 0 {
			pps = float64(done) / elapsed.Seconds()
			remain := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			eta = remain.Round(time.Second).String()
		}
		fmt.Fprintf(w, "\r%s: %d/%d points (%.1f/s, %s elapsed, ETA %s) %s  ", label, done, total,
			pps, elapsed.Round(time.Second), eta, point)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}
