package report

import (
	"fmt"
	"strings"

	"rccsim/internal/config"
	"rccsim/internal/obs/span"
)

// FormatSpans renders the causal-span section for one run: sampling rate,
// end-to-end latency percentiles, the per-segment waterfall with blame
// shares (largest-remainder rounded like every percentage column in this
// package), the cross-op critical path, and the slowest sampled ops. An
// empty string is returned when the recorder is nil or tracked nothing, so
// callers can append it unconditionally.
func FormatSpans(cfg config.Config, rec *span.Recorder, topN int) string {
	if rec == nil {
		return ""
	}
	sum := rec.Summarize(topN)
	if sum.Tracked == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "\ncausal spans (%v, every %d%s op, %d tracked):\n",
		cfg.Protocol, sum.Every, ordinal(int(sum.Every)), sum.Tracked)
	fmt.Fprintf(&b, "  end-to-end latency: p50 %d  p90 %d  p99 %d  max %d\n",
		sum.Total.P50, sum.Total.P90, sum.Total.P99, sum.Total.Max)

	b.WriteString("  segment           cycles  share      p50      p90      max\n")
	var segs []span.Seg
	var vals []uint64
	var total uint64
	for s := span.Seg(0); s < span.NumSegs; s++ {
		n := sum.SegSum[s.Name()]
		segs = append(segs, s)
		vals = append(vals, n)
		total += n
	}
	pc := PercentShares(vals, total)
	for i, s := range segs {
		if vals[i] == 0 {
			continue
		}
		q := sum.Segments[s.Name()]
		fmt.Fprintf(&b, "  %-14s %9d %5.1f%% %8d %8d %8d\n",
			s.Name(), vals[i], pc[i], q.P50, q.P90, q.Max)
	}

	if sum.Critical.Ops > 0 {
		fmt.Fprintf(&b, "  critical path: %d cycles across %d dependent ops\n",
			sum.Critical.Cycles, sum.Critical.Ops)
		for _, st := range sum.Critical.Path {
			why := ""
			if st.Why != "" {
				why = " via " + st.Why
			}
			fmt.Fprintf(&b, "    op %d (%s, %d cycles)%s\n", st.ID, st.Kind, st.Total, why)
		}
	}

	if len(sum.Slowest) > 0 {
		b.WriteString("  slowest sampled ops:\n")
		for _, o := range sum.Slowest {
			fmt.Fprintf(&b, "    op %-10d %-6s sm%-3d w%-3d line %#8x  %6d cycles\n",
				o.ID, o.Kind, o.SM, o.Warp, o.Line, o.Total)
		}
	}
	return b.String()
}

// ordinal renders the "-th" suffix for the sampling-rate sentence.
func ordinal(n int) string {
	switch {
	case n%100/10 == 1:
		return "th"
	case n%10 == 1:
		return "st"
	case n%10 == 2:
		return "nd"
	case n%10 == 3:
		return "rd"
	}
	return "th"
}
