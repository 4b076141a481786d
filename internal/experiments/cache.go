// Disk-backed memoization for the experiment harness.
//
// Every figure and sweep point runs in this process; a content-addressed
// result cache (Runner.Cache) may sit in front of the simulation so
// repeated or interrupted runs replay finished points instead of
// simulating them. The cache is deterministic — it replays the
// bit-identical stats the point produced — so output does not depend on
// whether it is attached.
package experiments

import (
	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/obs"
	"rccsim/internal/sim"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// simulate runs b under cfg, or replays it from r.Cache on a hit. Hits
// rebuild the full sim.Result from the stored stats: Energy is a pure
// function of (config, stats), so nothing else needs storing. Errors are
// never cached — a failed point is retried on the next run. Without a
// Cache, sweep point i (i >= 0) runs with the observers r.Attach(i)
// returns; with one, Attach is never called, because a hit runs no
// machine to host them (rccsweep rejects the flag combination).
func (r *Runner) simulate(point int, cfg config.Config, b workload.Benchmark) (sim.Result, error) {
	c := r.Cache
	if c == nil {
		var bus *trace.Bus
		var heat *obs.Heat
		if r.Attach != nil && point >= 0 {
			bus, heat = r.Attach(point)
		}
		return sim.RunBenchmarkSpanned(cfg, b, bus, heat, nil)
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
