package main

import (
	"sort"
	"time"

	"rccsim/internal/stats"
)

type metric struct {
	name  string
	value float64
	unit  string
}

type metrics []metric

func (ms *metrics) add(name string, value float64, unit string) {
	*ms = append(*ms, metric{name, value, unit})
}

const mb = 1e6

// endToEnd computes the metrics a user of the simulator sees, from the
// timed passes alone. Times are in reference-host seconds (see calib.go).
func endToEnd(timed []*pass) metrics {
	runMs := runMillis(timed)
	var ms metrics
	ms.add("wall_s", median(timed, func(p *pass) float64 { return p.cal(p.wall) }), "s")
	ms.add("run_ms_p50", quantile(runMs, 0.5), "ms")
	ms.add("run_ms_p90", quantile(runMs, 0.9), "ms")
	ms.add("runs_per_s", median(timed, func(p *pass) float64 { return ratio(float64(p.machines), p.cal(p.wall)) }), "1/s")
	ms.add("setup_s", median(timed, func(p *pass) float64 { return p.cal(p.setup) }), "s")
	ms.add("alloc_mb", median(timed, func(p *pass) float64 { return float64(p.alloc) / mb }), "MB")
	return ms
}

// layerMetrics computes the per-layer metrics that need no profile: the
// simulated counts (from the warm-up pass; every pass repeats them), the
// timed public calls, and the step-loop visit timings. Peak RSS is here
// rather than end to end because it depends on when the concurrent
// garbage collector happens to finish a cycle: on mc-family it varies by
// tens of percent between identical runs.
func (b *bench) layerMetrics(warm *pass, timed, traced []*pass, r *result, peakRSS float64) metrics {
	st := &warm.st
	var ms metrics
	ms.add("peak_rss_mb", peakRSS/mb, "MB")
	ms.add("sim_cycles", float64(warm.cycles), "count")
	ms.add("sim_cycles_per_s", median(timed, func(p *pass) float64 { return ratio(float64(p.cycles), p.cal(p.wall)) }), "1/s")
	ms.add("failed_frac", ratio(float64(r.failed), float64(r.attempted)), "ratio")

	ms.add("workload.generate_s", median(timed, func(p *pass) float64 { return p.cal(p.generate) }), "s")
	ms.add("sim.new_s", median(timed, func(p *pass) float64 { return p.cal(p.newM) }), "s")
	ms.add("sim.run_s", median(timed, func(p *pass) float64 { return p.cal(p.simRun) }), "s")
	ms.add("check.modelcheck_s", median(timed, func(p *pass) float64 { return p.cal(p.modelCheck) }), "s")
	ms.add("bench.wall_raw_s", median(timed, func(p *pass) float64 { return p.wall.Seconds() }), "s")
	ms.add("bench.host_factor", median(timed, func(p *pass) float64 { return p.host }), "x")

	ms.add("gpu.instrs", float64(st.Instructions), "count")
	ms.add("gpu.mem_ops", float64(st.MemOps), "count")
	ms.add("coherence.l1.accesses", float64(st.L1Loads+st.L1Stores), "count")
	ms.add("coherence.l1.hit_frac", ratio(float64(st.L1LoadHits), float64(st.L1Loads)), "ratio")
	ms.add("coherence.l1.expired_frac", ratio(float64(st.L1LoadExpired), float64(st.L1Loads)), "ratio")
	ms.add("coherence.l1.renewed", float64(st.L1Renewed), "count")
	ms.add("coherence.l2.accesses", float64(st.L2Accesses), "count")
	ms.add("coherence.l2.miss_frac", ratio(float64(st.L2Misses), float64(st.L2Accesses)), "ratio")
	ms.add("coherence.l2.invalidations", float64(st.Invalidations), "count")
	ms.add("noc.msgs", float64(sum(st.Msgs[:])), "count")
	ms.add("noc.flits", float64(st.TotalFlits()), "count")
	ms.add("mem.dram.cmds", float64(st.DRAMReads+st.DRAMWrites), "count")
	ms.add("mem.dram.row_hit_frac", ratio(float64(st.DRAMRowHits), float64(st.DRAMRowHits+st.DRAMRowMisses)), "ratio")
	total := float64(st.TotalAccounted())
	for _, c := range stats.CycleCats() {
		ms.add("acct."+c.String()+".frac", ratio(float64(st.CycleAccount[c]), total), "ratio")
	}
	ms.add("check.mc_runs", float64(warm.mcRuns), "count")
	ms.add("check.mc_states", float64(warm.mcStates), "count")
	ms.add("obs.trace_events", float64(warm.traceEvents), "count")
	ms.add("obs.span_ops", float64(warm.spanOps), "count")

	if len(traced) > 0 {
		t := traced[0]
		ms.add("sim.visits", float64(t.visits), "count")
		ms.add("sim.busy_visit_frac", ratio(float64(t.busyVisits), float64(t.visits)), "ratio")
		var busyNs, idleNs time.Duration
		var busy, idle uint64
		for _, p := range traced {
			busyNs += p.busyNs
			idleNs += p.idleNs
			busy += p.busyVisits
			idle += p.visits - p.busyVisits
		}
		ms.add("sim.step_busy_ns", ratio(float64(busyNs), float64(busy)), "ns")
		ms.add("sim.step_idle_ns", ratio(float64(idleNs), float64(idle)), "ns")
		wall := func(p *pass) float64 { return p.wall.Seconds() }
		ms.add("bench.trace_overhead_x", ratio(median(traced, wall), median(timed, wall)), "x")
	}
	return ms
}

// hostMetrics computes the profile-derived per-layer metrics: each
// layer's share of the traced passes' CPU time, and its CPU time per
// unit of the work it simulates.
func (b *bench) hostMetrics(warm *pass, traced []*pass, lt layerTime) metrics {
	var ms metrics
	for i, pct := range lt.shares() {
		ms.add("host."+layers[i]+".pct", pct, "%")
	}
	ms.add("host.alloc.pct", 100*ratio(float64(lt.allocNs), float64(lt.totalNs)), "%")

	// The traced passes repeat the warm-up's simulated work.
	n := float64(len(traced))
	var visits, machines, mcRuns float64
	for _, p := range traced {
		visits += float64(p.visits)
		machines += float64(p.machines)
		mcRuns += float64(p.mcRuns)
	}
	st := &warm.st
	per := func(layer string, count float64, unit time.Duration) float64 {
		return ratio(float64(lt.nsOf(layer)), count*float64(unit))
	}
	ms.add("host.gpu.ns_per_instr", per("gpu", n*float64(st.Instructions), time.Nanosecond), "ns")
	ms.add("host.coherence.l1.ns_per_access", per("coherence.l1", n*float64(st.L1Loads+st.L1Stores), time.Nanosecond), "ns")
	ms.add("host.coherence.l2.ns_per_access", per("coherence.l2", n*float64(st.L2Accesses), time.Nanosecond), "ns")
	ms.add("host.noc.ns_per_msg", per("noc", n*float64(sum(st.Msgs[:])), time.Nanosecond), "ns")
	ms.add("host.mem.dram.ns_per_cmd", per("mem.dram", n*float64(st.DRAMReads+st.DRAMWrites), time.Nanosecond), "ns")
	ms.add("host.sim.ns_per_visit", per("sim", visits, time.Nanosecond), "ns")
	ms.add("host.sim.new.ms_per_machine", per("sim.new", machines, time.Millisecond), "ms")
	ms.add("host.check.us_per_run", per("check", mcRuns, time.Microsecond), "us")
	return ms
}

// runMillis returns each run's wall time in reference-host ms, as its
// median over the timed passes (run i is the same kernel and protocol,
// or program, in every pass). Host speed drifts between passes; a
// percentile pooled over passes picks the slowest pass's copies of the
// runs just below it.
func runMillis(timed []*pass) []float64 {
	if len(timed) == 0 {
		return nil
	}
	n := len(timed[0].runs)
	for _, p := range timed {
		n = min(n, len(p.runs))
	}
	out := make([]float64, n)
	v := make([]float64, len(timed))
	for i := range out {
		for j, p := range timed {
			v[j] = 1000 * p.cal(p.runs[i])
		}
		out[i] = quantile(v, 0.5)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(v []uint64) uint64 {
	var t uint64
	for _, x := range v {
		t += x
	}
	return t
}

// median is the median over passes of f.
func median(ps []*pass, f func(*pass) float64) float64 {
	v := make([]float64, len(ps))
	for i, p := range ps {
		v[i] = f(p)
	}
	return quantile(v, 0.5)
}

// quantile is the q-quantile of v, interpolating linearly between the
// closest ranks (0 for no values).
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
