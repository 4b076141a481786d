// Parallel execution layer for the experiment Runner.
//
// Simulations are embarrassingly parallel: each sim.Machine owns a private
// stats.Run and a deterministic RNG seeded from its config, so two machines
// never share mutable state and a run's result does not depend on what else
// executes concurrently. The Runner exploits that by fanning independent
// RunBenchmark calls out across a bounded worker pool while keeping the
// memo cache safe under concurrency with singleflight-style entries: the
// first goroutine to request a key runs the simulation, later requesters
// block on the entry until it completes. Results are therefore byte-for-byte
// identical to a sequential run (TestParallelMatchesSequential pins this).
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"rccsim/internal/config"
	"rccsim/internal/sim"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// defaultJobs is the worker count when none is requested: one per CPU.
func defaultJobs() int { return runtime.GOMAXPROCS(0) }

// flight is one memo-cache entry. The goroutine that created it runs the
// simulation, fills res/err, and closes done; everyone else waits on done.
type flight struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// Request identifies one (protocol, benchmark, ablation) simulation for
// batch submission via Preload.
type Request struct {
	Protocol  config.Protocol
	Bench     workload.Benchmark
	Renew     bool
	Predictor bool
}

// Req builds the default (renewal and predictor enabled) request.
func Req(p config.Protocol, b workload.Benchmark) Request {
	return Request{Protocol: p, Bench: b, Renew: true, Predictor: true}
}

// crossReqs builds the protocol x benchmark cross product of default
// requests, in row-major (benchmark-outer) order.
func crossReqs(ps []config.Protocol, bs []workload.Benchmark) []Request {
	reqs := make([]Request, 0, len(ps)*len(bs))
	for _, b := range bs {
		for _, p := range ps {
			reqs = append(reqs, Req(p, b))
		}
	}
	return reqs
}

// Preload runs every requested simulation, at most Jobs at a time, and
// blocks until all complete. Requests already cached (or in flight from a
// concurrent caller) are not re-run. It returns the lowest-index error.
//
// Each figure calls Preload with its full (protocol, benchmark) matrix
// before assembling rows, so the expensive simulations run in parallel
// while row assembly stays a cheap, deterministic sequential loop over the
// now-warm cache.
func (r *Runner) Preload(reqs []Request) error {
	return r.each(len(reqs), len(reqs), func(i int) (string, error) {
		q := reqs[i]
		_, err := r.resultOpt(q.Protocol, q.Bench, q.Renew, q.Predictor)
		return ablationLabel(q.Bench.Name, q.Protocol, q.Renew, q.Predictor), err
	})
}

// resultOpt returns the simulation of b under protocol p with the given
// ablation switches, running it if no other goroutine has. Concurrent
// requests for the same key share one run; distinct keys run concurrently
// up to the Runner's job limit.
func (r *Runner) resultOpt(p config.Protocol, b workload.Benchmark, renew, pred bool) (sim.Result, error) {
	key := cacheKey{p, b.Name, renew, pred}
	r.mu.Lock()
	if f, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-f.done
		return f.res, f.err
	}
	f := &flight{done: make(chan struct{})}
	r.cache[key] = f
	r.mu.Unlock()

	cfg := r.Base
	cfg.Protocol = p
	cfg.RCCRenew = renew
	cfg.RCCPredictor = pred
	f.res, f.err = r.runPoint(ablationLabel(b.Name, p, renew, pred), -1, cfg, b)
	close(f.done)
	return f.res, f.err
}

// runPoint simulates one labelled point, bounded with every other point
// of the Runner to Jobs at a time: Started fires as it begins and Observe
// as it ends, with the finished stats (nil on failure). point is the
// sweep point's index, whose machine runs with the observers
// r.Attach(point) returns, or -1 for a memoized figure point, which runs
// with none.
func (r *Runner) runPoint(label string, point int, cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	r.sem <- struct{}{}
	if r.Started != nil {
		r.Started(label)
	}
	var o trace.Observers
	if r.Attach != nil && point >= 0 {
		o = r.Attach(point)
	}
	res, err := sim.RunBenchmark(cfg, b, o)
	if r.Observe != nil {
		r.Observe(label, res.Stats) // Stats is nil on error
	}
	r.runs.Add(1)
	<-r.sem
	return res, err
}

// each invokes f(0..n-1) on at most workers goroutines, reporting every
// finished call to Progress under the label f returns, and returns the
// lowest-index error.
func (r *Runner) each(workers, n int, f func(i int) (label string, err error)) error {
	var done atomic.Int64
	return parallelDo(workers, n, func(i int) error {
		label, err := f(i)
		if r.Progress != nil {
			r.Progress(int(done.Add(1)), n, label)
		}
		return err
	})
}

// pointLabel names one simulation point for progress and /runs reporting.
func pointLabel(bench string, p config.Protocol) string {
	return fmt.Sprintf("%s/%v", bench, p)
}

// ablationLabel extends pointLabel with the non-default ablation switches,
// so the Fig 7 -R/-P points are distinguishable from the default run of
// the same (benchmark, protocol) pair in /runs and in ledger entries —
// without the suffix the ledger collector would fold two different
// simulations under one label.
func ablationLabel(bench string, p config.Protocol, renew, pred bool) string {
	l := pointLabel(bench, p)
	if !renew {
		l += "/-renew"
	}
	if !pred {
		l += "/-pred"
	}
	return l
}

// parallelDo invokes f(0..n-1) with at most jobs concurrent workers
// (jobs <= 0 means GOMAXPROCS) and returns the lowest-index error. With
// jobs == 1 the calls are strictly sequential in index order.
func parallelDo(jobs, n int, f func(i int) error) error {
	if jobs <= 0 {
		jobs = defaultJobs()
	}
	if jobs > n {
		jobs = n
	}
	if jobs <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = f(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// sweep simulates b under each config, bypassing the in-memory memo
// (sweep points differ in fields outside its key), and returns the
// results in input order. Point i is labelled "bench/protocol@i", so
// concurrent points stay distinct in /runs and in ledger entries. With
// Jobs == 1 the points run strictly in order.
func (r *Runner) sweep(b workload.Benchmark, cfgs []config.Config) ([]sim.Result, error) {
	out := make([]sim.Result, len(cfgs))
	err := r.each(r.Jobs, len(cfgs), func(i int) (string, error) {
		label := fmt.Sprintf("%s@%d", pointLabel(b.Name, cfgs[i].Protocol), i)
		var err error
		out[i], err = r.runPoint(label, i, cfgs[i], b)
		return label, err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
