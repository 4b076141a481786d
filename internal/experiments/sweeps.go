package experiments

import (
	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// The sweeps vary config fields outside the Runner's memo key (lease,
// warps, timestamp width, scheduler), so they do not memoize; instead each
// builds its point configs from r.Base up front and fans the independent
// simulations out through r.sweep, which runs them under the Runner's
// Jobs, Cache and hooks and preserves input order, so rows are identical
// to a sequential run.

// LeaseSweepRow is one point of the fixed-lease sweep (Sec. III-E: the
// paper found the spread among fixed leases negligible because logical
// time advances in lease-sized steps).
type LeaseSweepRow struct {
	Lease   uint64
	Cycles  uint64
	Expired uint64
	Renewed uint64
}

// LeaseSweep runs benchmark b under RCC with the predictor disabled for
// each fixed lease value.
func (r *Runner) LeaseSweep(b workload.Benchmark, leases []uint64) ([]LeaseSweepRow, error) {
	cfgs := make([]config.Config, len(leases))
	for i, lease := range leases {
		cfg := r.Base
		cfg.Protocol = config.RCC
		cfg.RCCPredictor = false
		cfg.RCCFixedLease = lease
		cfgs[i] = cfg
	}
	results, err := r.sweep(b, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]LeaseSweepRow, len(results))
	for i, res := range results {
		rows[i] = LeaseSweepRow{
			Lease:   leases[i],
			Cycles:  res.Stats.Cycles,
			Expired: res.Stats.L1LoadExpired,
			Renewed: res.Stats.L1Renewed,
		}
	}
	return rows, nil
}

// WarpSweepRow is one point of the TLP sweep: how much thread-level
// parallelism is needed to cover SC stalls (the argument of [13]).
type WarpSweepRow struct {
	Warps       uint64
	Cycles      uint64
	IPC         float64
	StallCycles uint64
}

// WarpSweep runs benchmark b under RCC-SC for each warps-per-SM count.
func (r *Runner) WarpSweep(b workload.Benchmark, warps []int) ([]WarpSweepRow, error) {
	cfgs := make([]config.Config, len(warps))
	for i, w := range warps {
		cfg := r.Base
		cfg.Protocol = config.RCC
		cfg.WarpsPerSM = w
		cfgs[i] = cfg
	}
	results, err := r.sweep(b, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]WarpSweepRow, len(results))
	for i, res := range results {
		rows[i] = WarpSweepRow{
			Warps:       uint64(warps[i]),
			Cycles:      res.Stats.Cycles,
			IPC:         res.Stats.IPC(),
			StallCycles: res.Stats.TotalSCStallCycles(),
		}
	}
	return rows, nil
}

// TCLeaseSweepRow is one point of the TC-Strong lease sweep: the tension
// between store stalls (long leases) and L1 hit rate (short leases) that
// RCC escapes by using logical time.
type TCLeaseSweepRow struct {
	Lease       uint64
	Cycles      uint64
	StoreStalls uint64
	L1HitRate   float64
}

// TCLeaseSweep runs benchmark b under TC-Strong for each lease duration.
func (r *Runner) TCLeaseSweep(b workload.Benchmark, leases []uint64) ([]TCLeaseSweepRow, error) {
	cfgs := make([]config.Config, len(leases))
	for i, lease := range leases {
		cfg := r.Base
		cfg.Protocol = config.TCS
		cfg.TCLease = lease
		cfgs[i] = cfg
	}
	results, err := r.sweep(b, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]TCLeaseSweepRow, len(results))
	for i, res := range results {
		hit := 0.0
		if res.Stats.L1Loads > 0 {
			hit = float64(res.Stats.L1LoadHits) / float64(res.Stats.L1Loads)
		}
		rows[i] = TCLeaseSweepRow{
			Lease:       leases[i],
			Cycles:      res.Stats.Cycles,
			StoreStalls: res.Stats.L2StoreStallCycles,
			L1HitRate:   hit,
		}
	}
	return rows, nil
}

// TSBitsSweepRow is one point of the timestamp-width sweep: narrower
// timestamps roll over more often and pay the Sec. III-D stop-the-world
// flush.
type TSBitsSweepRow struct {
	Bits      uint
	Cycles    uint64
	Rollovers uint64
	Stall     uint64
}

// TSBitsSweep runs benchmark b under RCC for each timestamp width. Widths
// too narrow for the configured maximum lease are skipped.
func (r *Runner) TSBitsSweep(b workload.Benchmark, bits []uint) ([]TSBitsSweepRow, error) {
	var kept []uint
	var cfgs []config.Config
	for _, n := range bits {
		cfg := r.Base
		cfg.Protocol = config.RCC
		cfg.RCCTSMax = (uint64(1) << n) - 1
		if cfg.RCCTSMax < 4*cfg.RCCMaxLease {
			continue
		}
		kept = append(kept, n)
		cfgs = append(cfgs, cfg)
	}
	results, err := r.sweep(b, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]TSBitsSweepRow, len(results))
	for i, res := range results {
		rows[i] = TSBitsSweepRow{
			Bits:      kept[i],
			Cycles:    res.Stats.Cycles,
			Rollovers: res.Stats.Rollovers,
			Stall:     res.Stats.RolloverStall,
		}
	}
	return rows, nil
}

// SchedSweepRow compares warp schedulers (LRR vs GTO) for one protocol.
type SchedSweepRow struct {
	Scheduler   config.Scheduler
	Protocol    config.Protocol
	Cycles      uint64
	IPC         float64
	StallCycles uint64
}

// SchedulerSweep runs benchmark b under each (scheduler, protocol) pair —
// a sensitivity study for the Table III "loose round-robin" choice.
func (r *Runner) SchedulerSweep(b workload.Benchmark, protocols []config.Protocol) ([]SchedSweepRow, error) {
	type point struct {
		sched config.Scheduler
		proto config.Protocol
	}
	var points []point
	var cfgs []config.Config
	for _, sched := range []config.Scheduler{config.LRR, config.GTO} {
		for _, p := range protocols {
			cfg := r.Base
			cfg.Scheduler = sched
			cfg.Protocol = p
			points = append(points, point{sched, p})
			cfgs = append(cfgs, cfg)
		}
	}
	results, err := r.sweep(b, cfgs)
	if err != nil {
		return nil, err
	}
	rows := make([]SchedSweepRow, len(results))
	for i, res := range results {
		rows[i] = SchedSweepRow{
			Scheduler:   points[i].sched,
			Protocol:    points[i].proto,
			Cycles:      res.Stats.Cycles,
			IPC:         res.Stats.IPC(),
			StallCycles: res.Stats.TotalSCStallCycles(),
		}
	}
	return rows, nil
}
