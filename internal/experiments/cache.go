// Disk-backed memoization for the experiment harness.
//
// Every figure and sweep point runs in this process; a content-addressed
// result cache (Runner.Cache, WithCache) may sit in front of the
// simulation so repeated or interrupted runs replay finished points
// instead of simulating them. The cache is deterministic — it replays the
// bit-identical stats the point produced — so output does not depend on
// whether it is attached.
package experiments

import (
	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/resultcache"
	"rccsim/internal/sim"
	"rccsim/internal/workload"
)

// WithCache serves every point of a sweep from c when c holds it and
// stores every freshly simulated point. A hit never runs a local machine,
// so WithPointTracer and WithPointHeat are ignored when a cache is set
// (the CLIs reject the flag combinations up front).
func WithCache(c *resultcache.Cache) RunOpt {
	return func(o *runOpts) { o.cache = c }
}

// runCached simulates b under cfg, or replays it from c on a hit; a nil c
// always simulates. Hits rebuild the full sim.Result from the stored
// stats: Energy is a pure function of (config, stats), so nothing else
// needs storing. Errors are never cached — a failed point is retried on
// the next run.
func runCached(c *resultcache.Cache, cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	if c == nil {
		return sim.RunBenchmark(cfg, b)
	}
	key := c.Key(cfg, b.Name)
	if st, ok := c.Get(key); ok {
		return sim.Result{Config: cfg, Stats: st, Energy: energy.Interconnect(cfg, st)}, nil
	}
	res, err := sim.RunBenchmark(cfg, b)
	if err == nil {
		// A write failure only costs a recompute next run; the sweep
		// itself must not fail over cache-disk trouble.
		_ = c.Put(key, res.Stats)
	}
	return res, err
}
