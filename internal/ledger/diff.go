// Hierarchical regression attribution between two ledger entries: a
// noise-aware wall-clock gate on every benchmark both entries share
// (median ns/op ± MAD over repeats), a largest-mover decomposition over
// stats.CycleCat categories (largest-remainder percentages, the report
// package's conventions), a per-benchmark and per-run drill-down, and
// span-segment / heat-line deltas. All output is deterministic: map walks
// are sorted and every number has a fixed format, so the same entry pair
// always renders the same bytes (byte-pinned by the tests and relied on by
// CI).
package ledger

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"rccsim/internal/report"
	"rccsim/internal/stats"
)

const (
	// simTolerancePct fails the gate when a matched run's simulated cycles
	// grow more than this: a behaviour regression, host-independent.
	simTolerancePct = 2
	// noiseMADs scales the noise band: an ns/op delta within
	// noiseMADs × (MAD_base + MAD_cur) of zero is not significant.
	noiseMADs = 3
)

// Options tunes a diff computation. The zero value picks the defaults.
type Options struct {
	// TolerancePct fails the gate when a shared benchmark's median ns/op
	// grows more than this (and more than its noise band). Default 10.
	TolerancePct float64
}

func (o Options) withDefaults() Options {
	if o.TolerancePct == 0 {
		o.TolerancePct = 10
	}
	return o
}

// Stat is a robust summary of one metric's repeat samples.
type Stat struct {
	Median float64 `json:"median"`
	MAD    float64 `json:"mad"`
	N      int     `json:"n"`
}

// MetricDelta compares one metric of one benchmark.
type MetricDelta struct {
	Name     string  `json:"name"`
	Base     Stat    `json:"base"`
	Cur      Stat    `json:"cur"`
	DeltaPct float64 `json:"delta_pct"` // signed (cur-base)/base, raw direction
}

// BenchDelta is the per-benchmark row. Its median ns/op is the gated
// wall-clock series (lower is better for every Go-bench line); the other
// metrics are reported only.
type BenchDelta struct {
	Name    string       `json:"name"`
	NsPerOp *MetricDelta `json:"ns_per_op,omitempty"`
	// NoisePct is the ns/op noise band: noiseMADs × (MAD_base + MAD_cur)
	// as a percentage of the base median.
	NoisePct float64 `json:"noise_pct"`
	// Gated is false when the hosts are not comparable or either side
	// has a single ns/op sample (no noise estimate): the row is shown but
	// never fails the gate.
	Gated   bool          `json:"gated"`
	Metrics []MetricDelta `json:"metrics,omitempty"`
}

// significant reports whether the ns/op delta lies outside its noise band.
func (r *BenchDelta) significant() bool {
	return r.NsPerOp != nil && math.Abs(r.NsPerOp.DeltaPct) > r.NoisePct
}

// CatDelta is one cycle-account category's movement.
type CatDelta struct {
	Cat         string  `json:"cat"`
	BaseCycles  uint64  `json:"base_cycles"`
	CurCycles   uint64  `json:"cur_cycles"`
	DeltaCycles int64   `json:"delta_cycles"`
	BaseShare   float64 `json:"base_share_pct"` // largest-remainder, sums to 100.0
	CurShare    float64 `json:"cur_share_pct"`
	DeltaPts    float64 `json:"delta_pts"`
}

// SpanDelta compares one span segment's percentiles across the pair.
type SpanDelta struct {
	Segment string `json:"segment"`
	BaseP90 uint64 `json:"base_p90"`
	CurP90  uint64 `json:"cur_p90"`
	BaseP50 uint64 `json:"base_p50"`
	CurP50  uint64 `json:"cur_p50"`
}

// HeatDelta compares one contended line's total touches.
type HeatDelta struct {
	Line      uint64 `json:"line"`
	BaseTotal uint64 `json:"base_total"`
	CurTotal  uint64 `json:"cur_total"`
}

// RunDelta attributes one matched simulation point (or the all-runs
// aggregate) between the two entries.
type RunDelta struct {
	Label          string     `json:"label"`
	SMs            int        `json:"sms,omitempty"`
	BaseCycles     uint64     `json:"base_cycles"`
	CurCycles      uint64     `json:"cur_cycles"`
	CyclesDeltaPct float64    `json:"cycles_delta_pct"`
	Account        []CatDelta `json:"account,omitempty"`
	// LargestMover names the category with the biggest |share| movement;
	// empty when the accounts are identical.
	LargestMover    string  `json:"largest_mover,omitempty"`
	LargestMoverPts float64 `json:"largest_mover_pts,omitempty"`
	InvariantOK     bool    `json:"invariant_ok"`
	// DeltaAccounted is Σ per-category Δcycles; reconciles exactly with
	// the closed-sum invariant (== Δ TotalAccounted) when InvariantOK.
	DeltaAccounted int64       `json:"delta_accounted"`
	Spans          []SpanDelta `json:"spans,omitempty"`
	Heat           []HeatDelta `json:"heat,omitempty"`
}

// Diff is the full hierarchical comparison of two entries.
type Diff struct {
	BaseID    string `json:"base_id"`
	CurID     string `json:"cur_id"`
	BaseLabel string `json:"base_label"`
	CurLabel  string `json:"cur_label"`
	BaseHost  Host   `json:"base_host"`
	CurHost   Host   `json:"cur_host"`
	// CrossHost means wall-clock comparisons were skipped (flagged, not
	// silently compared); behaviour comparisons still run.
	CrossHost bool         `json:"cross_host"`
	Benches   []BenchDelta `json:"benchmarks,omitempty"`
	// Aggregate is the all-matched-runs cycle-account attribution; Runs
	// is the per-point drill-down.
	Aggregate *RunDelta  `json:"aggregate,omitempty"`
	Runs      []RunDelta `json:"runs,omitempty"`
	// Failures lists CI-gate violations (empty = pass); Notes carries
	// non-fatal flags like the cross-host skip.
	Failures []string `json:"failures,omitempty"`
	Notes    []string `json:"notes,omitempty"`
	opt      Options
}

// Ok reports whether the CI gate passes.
func (d *Diff) Ok() bool { return len(d.Failures) == 0 }

// NoData reports whether the entries shared no benchmark and no
// decodable run: the diff compared nothing, so Ok carries no evidence.
func (d *Diff) NoData() bool { return len(d.Benches) == 0 && len(d.Runs) == 0 }

// median returns the middle sample (mean of the middle two for even n).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// madOf returns the median absolute deviation around med.
func madOf(vs []float64, med float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	dev := make([]float64, len(vs))
	for i, v := range vs {
		dev[i] = math.Abs(v - med)
	}
	return median(dev)
}

// reduce summarizes one metric of a benchmark record ("" = ns/op).
func reduce(rec *BenchRec, metric string) (Stat, bool) {
	var vs []float64
	for _, s := range rec.Samples {
		if metric == "" {
			vs = append(vs, s.NsPerOp)
			continue
		}
		if v, ok := s.Metrics[metric]; ok {
			vs = append(vs, v)
		}
	}
	if len(vs) == 0 {
		return Stat{}, false
	}
	med := median(vs)
	return Stat{Median: med, MAD: madOf(vs, med), N: len(vs)}, true
}

// pct returns 100*(cur-base)/base, or 0 when base is 0.
func pct(base, cur float64) float64 {
	if base == 0 {
		return 0
	}
	return 100 * (cur - base) / base
}

// Compute builds the hierarchical diff of base → cur under opt.
func Compute(baseID string, base *Entry, curID string, cur *Entry, opt Options) *Diff {
	opt = opt.withDefaults()
	d := &Diff{
		BaseID: baseID, CurID: curID,
		BaseLabel: base.Label, CurLabel: cur.Label,
		BaseHost: base.Host, CurHost: cur.Host,
		CrossHost: !base.Host.Comparable(cur.Host),
		opt:       opt,
	}
	if d.CrossHost {
		d.Notes = append(d.Notes, fmt.Sprintf(
			"cross-host: base [%s] vs cur [%s] — wall-clock deltas skipped, behaviour deltas still checked",
			base.Host, cur.Host))
	}
	d.computeBenches(base, cur)
	d.computeRuns(base, cur)
	return d
}

func (d *Diff) computeBenches(base, cur *Entry) {
	names := map[string]bool{}
	for _, r := range base.Benchmarks {
		names[r.Name] = true
	}
	matched := []string{}
	for _, r := range cur.Benchmarks {
		if names[r.Name] {
			matched = append(matched, r.Name)
		}
	}
	sort.Strings(matched)
	for _, name := range matched {
		br, cr := base.Bench(name), cur.Bench(name)
		row := BenchDelta{Name: name}
		if bs, ok := reduce(br, ""); ok {
			if cs, ok := reduce(cr, ""); ok {
				row.NsPerOp = &MetricDelta{Name: "ns/op", Base: bs, Cur: cs, DeltaPct: pct(bs.Median, cs.Median)}
				if bs.Median != 0 {
					row.NoisePct = 100 * noiseMADs * (bs.MAD + cs.MAD) / bs.Median
				}
				row.Gated = !d.CrossHost && bs.N > 1 && cs.N > 1
			}
		}
		mset := map[string]bool{}
		for _, s := range br.Samples {
			for m := range s.Metrics {
				mset[m] = true
			}
		}
		metrics := make([]string, 0, len(mset))
		for m := range mset {
			metrics = append(metrics, m)
		}
		sort.Strings(metrics)
		for _, m := range metrics {
			bs, bok := reduce(br, m)
			cs, cok := reduce(cr, m)
			if !bok || !cok {
				continue
			}
			row.Metrics = append(row.Metrics, MetricDelta{Name: m, Base: bs, Cur: cs, DeltaPct: pct(bs.Median, cs.Median)})
		}
		if row.Gated && row.NsPerOp.DeltaPct > d.opt.TolerancePct && row.significant() {
			d.Failures = append(d.Failures, fmt.Sprintf(
				"benchmark %s ns/op regressed %.1f%% (tolerance %.0f%%, noise band ±%.1f%%)",
				name, row.NsPerOp.DeltaPct, d.opt.TolerancePct, row.NoisePct))
		}
		d.Benches = append(d.Benches, row)
	}
}

func (d *Diff) computeRuns(base, cur *Entry) {
	labels := []string{}
	for _, r := range cur.Runs {
		if base.Run(r.Label) != nil {
			labels = append(labels, r.Label)
		}
	}
	sort.Strings(labels)
	if len(labels) == 0 {
		return
	}
	// Aggregate counter sets across every matched pair; per-run deltas
	// ride the same loop.
	aggBase, aggCur := stats.New(), stats.New()
	aggOK := true
	for _, label := range labels {
		br, cr := base.Run(label), cur.Run(label)
		bst, berr := br.DecodeStats()
		cst, cerr := cr.DecodeStats()
		if berr != nil || cerr != nil {
			d.Notes = append(d.Notes, fmt.Sprintf("run %q: undecodable stats, skipped", label))
			aggOK = false
			continue
		}
		rd := runDelta(label, bst, cst)
		rd.Spans = spanDeltas(br.Spans, cr.Spans)
		rd.Heat = heatDeltas(br.Heat, cr.Heat)
		d.Runs = append(d.Runs, rd)
		aggBase.Merge(bst)
		aggBase.Cycles += bst.Cycles // Merge excludes machine time
		aggCur.Merge(cst)
		aggCur.Cycles += cst.Cycles
	}
	if len(d.Runs) == 0 {
		return
	}
	if aggOK {
		agg := runDelta(fmt.Sprintf("(all %d matched runs)", len(d.Runs)), aggBase, aggCur)
		d.Aggregate = &agg
	}
	// Behaviour gate: simulated cycles growing beyond tolerance is a
	// regression regardless of host (the numbers are bit-deterministic).
	for _, rd := range d.Runs {
		if rd.CyclesDeltaPct > simTolerancePct {
			mover := rd.LargestMover
			if mover == "" {
				mover = "(no account movement)"
			}
			d.Failures = append(d.Failures, fmt.Sprintf(
				"run %s: simulated cycles regressed %.1f%% (%d → %d, tolerance %d%%), largest mover: %s (%+.1f pts)",
				rd.Label, rd.CyclesDeltaPct, rd.BaseCycles, rd.CurCycles, simTolerancePct,
				mover, rd.LargestMoverPts))
		}
	}
}

// runDelta computes the cycle-account attribution of one matched pair.
func runDelta(label string, bst, cst *stats.Run) RunDelta {
	rd := RunDelta{
		Label:          label,
		BaseCycles:     bst.Cycles,
		CurCycles:      cst.Cycles,
		CyclesDeltaPct: pct(float64(bst.Cycles), float64(cst.Cycles)),
	}
	bsms, bok := bst.AccountedSMs()
	csms, cok := cst.AccountedSMs()
	rd.InvariantOK = bok && cok && bsms == csms
	if rd.InvariantOK {
		rd.SMs = bsms
	}
	bShares := report.PercentShares(bst.CycleAccount[:], bst.TotalAccounted())
	cShares := report.PercentShares(cst.CycleAccount[:], cst.TotalAccounted())
	var movPts float64
	var mover string
	for _, c := range stats.CycleCats() {
		b, cu := bst.CycleAccount[c], cst.CycleAccount[c]
		cd := CatDelta{
			Cat:         c.String(),
			BaseCycles:  b,
			CurCycles:   cu,
			DeltaCycles: int64(cu) - int64(b),
			BaseShare:   bShares[c],
			CurShare:    cShares[c],
		}
		cd.DeltaPts = round1(cd.CurShare - cd.BaseShare)
		rd.DeltaAccounted += cd.DeltaCycles
		if b != 0 || cu != 0 {
			rd.Account = append(rd.Account, cd)
		}
		// Largest mover by share points, cycle delta as tie-break, earlier
		// category wins exact ties (deterministic).
		if math.Abs(cd.DeltaPts) > math.Abs(movPts) ||
			(math.Abs(cd.DeltaPts) == math.Abs(movPts) && mover == "" && cd.DeltaCycles != 0) {
			if cd.DeltaPts != 0 || cd.DeltaCycles != 0 {
				movPts, mover = cd.DeltaPts, cd.Cat
			}
		}
	}
	rd.LargestMover, rd.LargestMoverPts = mover, movPts
	return rd
}

// round1 rounds to one decimal, canonicalizing -0.0 to 0 so share deltas
// render and compare deterministically.
func round1(v float64) float64 {
	r := math.Round(v*10) / 10
	if r == 0 {
		return 0
	}
	return r
}

func spanDeltas(base, cur map[string]SpanQ) []SpanDelta {
	if len(base) == 0 || len(cur) == 0 {
		return nil
	}
	segs := make([]string, 0, len(base))
	for s := range base {
		if _, ok := cur[s]; ok {
			segs = append(segs, s)
		}
	}
	sort.Strings(segs)
	out := make([]SpanDelta, 0, len(segs))
	for _, s := range segs {
		b, c := base[s], cur[s]
		out = append(out, SpanDelta{Segment: s, BaseP90: b.P90, CurP90: c.P90, BaseP50: b.P50, CurP50: c.P50})
	}
	return out
}

func heatDeltas(base, cur []HeatLine) []HeatDelta {
	if len(base) == 0 || len(cur) == 0 {
		return nil
	}
	bt := make(map[uint64]uint64, len(base))
	for _, h := range base {
		bt[h.Line] = h.Total
	}
	out := []HeatDelta{}
	for _, h := range cur {
		if b, ok := bt[h.Line]; ok {
			out = append(out, HeatDelta{Line: h.Line, BaseTotal: b, CurTotal: h.Total})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		di := absDiff(out[i].CurTotal, out[i].BaseTotal)
		dj := absDiff(out[j].CurTotal, out[j].BaseTotal)
		if di != dj {
			return di > dj
		}
		return out[i].Line < out[j].Line
	})
	return out
}

func absDiff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// Format renders the hierarchical report as deterministic text.
func (d *Diff) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rccdiff: %s (%s) -> %s (%s)\n",
		ShortID(d.BaseID), d.BaseLabel, ShortID(d.CurID), d.CurLabel)
	if d.CrossHost {
		fmt.Fprintf(&b, "hosts: NOT comparable\n  base: %s\n  cur:  %s\n", d.BaseHost, d.CurHost)
	} else {
		fmt.Fprintf(&b, "hosts: comparable (%s)\n", d.CurHost)
	}
	for _, n := range d.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}

	if len(d.Benches) > 0 {
		fmt.Fprintf(&b, "\nper-benchmark (median; gate: ns/op > +%.0f%% and outside its noise band):\n", d.opt.TolerancePct)
		for i := range d.Benches {
			row := &d.Benches[i]
			fmt.Fprintf(&b, "  %s  (%s)\n", row.Name, d.gateStatus(row))
			if row.NsPerOp != nil {
				formatMetric(&b, *row.NsPerOp)
			}
			for _, m := range row.Metrics {
				formatMetric(&b, m)
			}
		}
	}

	if agg := d.Aggregate; agg != nil {
		b.WriteString("\ncycle-account attribution " + agg.Label + ":\n")
		formatAccount(&b, agg)
	}

	if len(d.Runs) > 0 {
		b.WriteString("\nper-run simulated cycles:\n")
		fmt.Fprintf(&b, "  %-32s %12s %12s %8s  %s\n", "label", "base", "cur", "delta", "largest mover")
		for i := range d.Runs {
			r := &d.Runs[i]
			mover := "-"
			if r.LargestMover != "" {
				mover = fmt.Sprintf("%s (%+.1f pts)", r.LargestMover, r.LargestMoverPts)
			}
			fmt.Fprintf(&b, "  %-32s %12d %12d %+7.1f%%  %s\n",
				r.Label, r.BaseCycles, r.CurCycles, r.CyclesDeltaPct, mover)
		}
		for i := range d.Runs {
			r := &d.Runs[i]
			if len(r.Spans) > 0 {
				fmt.Fprintf(&b, "\nspan p50/p90 deltas (%s):\n", r.Label)
				fmt.Fprintf(&b, "  %-16s %10s %10s %10s %10s\n", "segment", "p50 base", "p50 cur", "p90 base", "p90 cur")
				for _, s := range r.Spans {
					fmt.Fprintf(&b, "  %-16s %10d %10d %10d %10d\n", s.Segment, s.BaseP50, s.CurP50, s.BaseP90, s.CurP90)
				}
			}
			if len(r.Heat) > 0 {
				fmt.Fprintf(&b, "\nheat-line movers (%s):\n", r.Label)
				fmt.Fprintf(&b, "  %-12s %12s %12s\n", "line", "base", "cur")
				for _, h := range r.Heat {
					fmt.Fprintf(&b, "  %#-12x %12d %12d\n", h.Line, h.BaseTotal, h.CurTotal)
				}
			}
		}
	}

	b.WriteByte('\n')
	if len(d.Failures) == 0 {
		if d.NoData() {
			b.WriteString("verdict: NO-DATA (no matching benchmarks or runs between the entries)\n")
		} else {
			b.WriteString("verdict: OK\n")
		}
	} else {
		b.WriteString("verdict: FAIL\n")
		for _, f := range d.Failures {
			fmt.Fprintf(&b, "  FAIL: %s\n", f)
		}
	}
	return b.String()
}

// gateStatus says whether and how a benchmark row's ns/op is gated.
func (d *Diff) gateStatus(r *BenchDelta) string {
	switch {
	case r.NsPerOp == nil:
		return "no ns/op"
	case d.CrossHost:
		return "not gated: cross-host"
	case !r.Gated:
		return "not gated: one sample"
	case r.significant():
		return fmt.Sprintf("noise band ±%.1f%%, significant", r.NoisePct)
	}
	return fmt.Sprintf("noise band ±%.1f%%, not significant", r.NoisePct)
}

// formatAccount renders one attribution table with its reconciliation
// line against the closed-sum invariant.
func formatAccount(b *strings.Builder, r *RunDelta) {
	fmt.Fprintf(b, "  %-16s %14s %14s %8s %8s %7s %14s\n",
		"category", "base", "cur", "base%", "cur%", "Δpts", "Δcycles")
	for _, c := range r.Account {
		fmt.Fprintf(b, "  %-16s %14d %14d %7.1f%% %7.1f%% %+7.1f %+14d\n",
			c.Cat, c.BaseCycles, c.CurCycles, c.BaseShare, c.CurShare, c.DeltaPts, c.DeltaCycles)
	}
	if r.LargestMover != "" {
		fmt.Fprintf(b, "  largest mover: %s (%+.1f pts)\n", r.LargestMover, r.LargestMoverPts)
	}
	if r.InvariantOK {
		fmt.Fprintf(b, "  reconcile: sum(Δcycles) = %+d = Δ(cycles %d -> %d) x %d SMs (closed sum OK)\n",
			r.DeltaAccounted, r.BaseCycles, r.CurCycles, r.SMs)
	} else {
		// Per-side Cycles×SMs does not factor (e.g. an aggregate over runs
		// with different SM counts); the category deltas still sum to the
		// total-accounted delta by construction.
		fmt.Fprintf(b, "  reconcile: sum(Δcycles) = %+d = Δ total accounted (per-side SM factorization not uniform)\n",
			r.DeltaAccounted)
	}
}

func formatMetric(b *strings.Builder, m MetricDelta) {
	fmt.Fprintf(b, "    %-14s %14.1f -> %14.1f  %+7.1f%%", m.Name, m.Base.Median, m.Cur.Median, m.DeltaPct)
	if m.Base.N > 1 || m.Cur.N > 1 {
		fmt.Fprintf(b, "  (±MAD %.1f/%.1f, n=%d/%d)", m.Base.MAD, m.Cur.MAD, m.Base.N, m.Cur.N)
	}
	b.WriteByte('\n')
}

// Plant derives a synthetic regression from e for CI self-tests: the
// chosen cycle-account category is inflated by frac of each run's total
// cycles (keeping the closed-sum invariant exact by growing Cycles in
// per-SM steps), and every benchmark sample's ns/op, the gated series,
// grows by the same fraction. The returned entry shares e's host fingerprint, so the
// planted pair always compares as same-host.
func Plant(e *Entry, cat stats.CycleCat, frac float64) (*Entry, error) {
	if frac <= 0 {
		return nil, fmt.Errorf("ledger: plant fraction must be positive")
	}
	p := &Entry{
		Schema: Schema,
		Kind:   KindPlanted,
		Label:  e.Label + " (planted " + cat.String() + ")",
		Time:   e.Time,
		Host:   e.Host,
	}
	for _, rec := range e.Benchmarks {
		cp := BenchRec{Name: rec.Name, Iterations: rec.Iterations}
		for _, s := range rec.Samples {
			cp.Samples = append(cp.Samples, Sample{NsPerOp: s.NsPerOp * (1 + frac), Metrics: s.Metrics})
		}
		p.Benchmarks = append(p.Benchmarks, cp)
	}
	for _, rr := range e.Runs {
		st, err := rr.DecodeStats()
		if err != nil {
			return nil, err
		}
		sms, ok := st.AccountedSMs()
		if !ok {
			return nil, fmt.Errorf("ledger: plant: run %q violates the closed-sum invariant", rr.Label)
		}
		perSM := uint64(frac * float64(st.Cycles))
		if perSM == 0 {
			perSM = 1
		}
		st.CycleAccount[cat] += perSM * uint64(sms)
		st.Cycles += perSM
		cp := RunRec{Label: rr.Label, Spans: rr.Spans, Heat: rr.Heat}
		cp.SetStats(st)
		p.Runs = append(p.Runs, cp)
	}
	return p, nil
}
