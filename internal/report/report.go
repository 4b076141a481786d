// Package report formats a finished simulation into a human-readable,
// multi-section text summary: progress, consistency stalls, latencies with
// tails, cache behaviour, RCC mechanism activity, interconnect traffic and
// energy. Used by cmd/rccbench's stats subcommand and the examples.
package report

import (
	"fmt"
	"sort"
	"strings"

	"rccsim/internal/config"
	"rccsim/internal/energy"
	"rccsim/internal/stats"
)

// Format renders the full report for one run.
func Format(cfg config.Config, st *stats.Run) string {
	var b strings.Builder
	e := energy.Interconnect(cfg, st)

	fmt.Fprintf(&b, "protocol %v (%v), scheduler %v, seed %d, scale %.2f\n",
		cfg.Protocol, cfg.Protocol.Consistency(), cfg.Scheduler, cfg.Seed, cfg.Scale)
	fmt.Fprintf(&b, "cycles %d   instructions %d   IPC %.3f\n",
		st.Cycles, st.Instructions, st.IPC())

	fmt.Fprintf(&b, "\nmemory operations: %d global", st.MemOps)
	if st.MemOps > 0 {
		fmt.Fprintf(&b, " (%.1f%% experienced an SC stall)", 100*st.StalledOpFraction())
	}
	b.WriteByte('\n')
	if tot := st.TotalSCStallCycles(); tot > 0 {
		fmt.Fprintf(&b, "SC stalls: %d cycles in %d episodes (mean %.0f)\n",
			tot, st.SCStallEvents, st.MeanSCStallLatency())
		pc := PercentShares(st.SCStallCycles[:], tot)
		fmt.Fprintf(&b, "  blamed on: load %.1f%%  store %.1f%%  atomic %.1f%%\n",
			pc[stats.OpLoad], pc[stats.OpStore], pc[stats.OpAtomic])
	}
	if st.Fences > 0 {
		fmt.Fprintf(&b, "fences: %d (stall cycles %d)\n", st.Fences, st.FenceStallCycles)
	}

	if tot := st.TotalAccounted(); tot > 0 {
		b.WriteString("\ntop-down cycle accounting (SM-cycles):\n")
		pc := PercentShares(st.CycleAccount[:], tot)
		for _, c := range stats.CycleCats() {
			if st.CycleAccount[c] == 0 {
				continue
			}
			fmt.Fprintf(&b, "  %-16s %12d (%4.1f%%)\n",
				c, st.CycleAccount[c], pc[c])
		}
		fmt.Fprintf(&b, "  %-16s %12d\n", "total", tot)
	}

	b.WriteString("\nlatency (cycles)      mean      p50      p95\n")
	for _, c := range []stats.OpClass{stats.OpLoad, stats.OpStore, stats.OpAtomic} {
		acc := st.Latency[c]
		if acc.Count == 0 {
			continue
		}
		h := st.LatencyHist[c]
		fmt.Fprintf(&b, "  %-8s %12.0f %8d %8d\n",
			c, acc.Mean(), h.Percentile(0.5), h.Percentile(0.95))
	}

	fmt.Fprintf(&b, "\nL1: loads %d (%.1f%% hit, %.1f%% expired, %.1f%% miss), stores %d, evictions %d\n",
		st.L1Loads,
		100*frac(st.L1LoadHits, st.L1Loads),
		100*frac(st.L1LoadExpired, st.L1Loads),
		100*frac(st.L1LoadMisses, st.L1Loads),
		st.L1Stores, st.L1Evictions)
	fmt.Fprintf(&b, "L2: accesses %d, misses %d (%.1f%%), evictions %d\n",
		st.L2Accesses, st.L2Misses, 100*frac(st.L2Misses, st.L2Accesses), st.L2Evictions)
	fmt.Fprintf(&b, "DRAM: reads %d, writes %d, row hits %.1f%%\n",
		st.DRAMReads, st.DRAMWrites,
		100*frac(st.DRAMRowHits, st.DRAMRowHits+st.DRAMRowMisses))

	switch cfg.Protocol {
	case config.RCC, config.RCCWO:
		fmt.Fprintf(&b, "\nRCC: renewals %d, renewable refetches %.1f%%, predictor +%d/-%d, rollovers %d (%d stall cycles)\n",
			st.L1Renewed, 100*st.RenewableFraction(),
			st.PredictorGrows, st.PredictorDrops, st.Rollovers, st.RolloverStall)
	case config.TCS, config.TCW:
		fmt.Fprintf(&b, "\nTC: store stall cycles at L2 %d\n", st.L2StoreStallCycles)
	case config.MESI, config.SCIdeal:
		fmt.Fprintf(&b, "\nMESI: invalidations %d, recalls %d\n", st.Invalidations, st.Recalls)
	}

	b.WriteString("\ninterconnect traffic (flits):\n")
	pc := PercentShares(st.Flits[:], st.TotalFlits())
	for _, c := range stats.MsgClasses() {
		if st.Flits[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %12d (%4.1f%%)\n",
			c, st.Flits[c], pc[c])
	}
	fmt.Fprintf(&b, "  %-10s %12d\n", "total", st.TotalFlits())
	fmt.Fprintf(&b, "interconnect energy: %.1f nJ (buffer %.1f, switch %.1f, link %.1f, static %.1f)\n",
		e.Total(), e.Buffer, e.Switch, e.Link, e.Static)
	return b.String()
}

func frac(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// PercentShares apportions 100.0% across values in tenths of a percent
// using largest-remainder rounding: each printed one-decimal percentage is
// within a tenth of its exact share, and — unlike independently rounded
// rows, which drift to 99.9 or 100.1 — the rows always sum to exactly
// 100.0. Zero values stay at exactly 0.0, so rows skipped by the caller
// never absorb a tenth. Ties break toward the earlier index, keeping the
// output deterministic. The ledger diff and rccperf's layer table share it,
// so their percentages follow the same conventions.
func PercentShares(values []uint64, total uint64) []float64 {
	out := make([]float64, len(values))
	if total == 0 {
		return out
	}
	tenths := make([]uint64, len(values))
	order := make([]int, len(values))
	var used uint64
	for i, v := range values {
		tenths[i] = v * 1000 / total
		used += tenths[i]
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return values[order[a]]*1000%total > values[order[b]]*1000%total
	})
	for k := 0; used < 1000 && k < len(order); k++ {
		i := order[k]
		if values[i]*1000%total == 0 {
			break // remaining remainders are all zero
		}
		tenths[i]++
		used++
	}
	for i, t := range tenths {
		out[i] = float64(t) / 10
	}
	return out
}
