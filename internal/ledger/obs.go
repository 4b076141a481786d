// Bridges to the live observability layer: heat sketches render to
// ledger rows, the archive serves over HTTP (mounted as /ledger through
// obs.Mounts.Ledger), and a computed regression diff publishes
// rccsim_regression_* gauges so a scrape sees the latest verdict next to
// the live counters. These live here, not in package obs, because obs is
// imported by the simulator core (sim → obs) and must stay below the
// ledger in the dependency order.
package ledger

import (
	"encoding/json"
	"net/http"

	"rccsim/internal/obs"
)

// TopHeatLines converts the sketch's top n entries to ledger rows (nil
// for a nil/empty sketch or n <= 0), using the stable HeatMetric names as
// counter keys. Zero counters are dropped — the names, not the enum
// width, are the wire contract.
func TopHeatLines(h *obs.Heat, n int) []HeatLine {
	if h == nil || n <= 0 {
		return nil
	}
	top := h.TopK()
	if len(top) > n {
		top = top[:n]
	}
	out := make([]HeatLine, 0, len(top))
	for i := range top {
		e := &top[i]
		hl := HeatLine{Line: e.Line, Total: e.Total(), Err: e.Err}
		for _, m := range obs.HeatMetrics() {
			if c := e.Counts[m]; c != 0 {
				if hl.Counts == nil {
					hl.Counts = map[string]uint64{}
				}
				hl.Counts[m.String()] = c
			}
		}
		out = append(out, hl)
	}
	return out
}

// Handler serves the archive over HTTP: GET with no query lists the
// INDEX as JSON; GET ?ref=@-1 (or any rccdiff-style ref) serves the
// resolved entry's canonical bytes. A nil ledger yields a nil handler,
// which obs.Serve treats as "mount nothing".
func Handler(l *Ledger) http.Handler {
	if l == nil {
		return nil
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ref := r.URL.Query().Get("ref"); ref != "" {
			_, e, err := l.Resolve(ref)
			if err != nil {
				http.Error(w, err.Error(), http.StatusNotFound)
				return
			}
			b, err := e.Canonical()
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			w.Write(b)
			return
		}
		idx, err := l.Index()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(struct {
			Dir     string      `json:"dir"`
			Entries []IndexLine `json:"entries"`
		}{l.Dir(), idx})
	})
}

// PublishRegression exports a computed diff as rccsim_regression_*
// gauges: the per-category share movement and simulated-cycles delta of
// the aggregate attribution, the failure count (nonzero = the CI gate
// would fail) and the cross-host flag.
func PublishRegression(reg *obs.Registry, d *Diff) {
	if reg == nil || d == nil {
		return
	}
	if agg := d.Aggregate; agg != nil {
		for _, c := range agg.Account {
			reg.RegisterLabelled("rccsim_regression_cat_delta_pts",
				"Cycle-account share movement vs baseline, percentage points",
				obs.Gauge, map[string]string{"cat": c.Cat}).SetFloat(c.DeltaPts)
		}
		reg.Register("rccsim_regression_sim_cycles_pct",
			"Simulated-cycles delta of the aggregate run set, percent", obs.Gauge).SetFloat(agg.CyclesDeltaPct)
	}
	reg.Register("rccsim_regression_failures",
		"Number of CI-gate violations in the latest ledger diff", obs.Gauge).Set(uint64(len(d.Failures)))
	crossHost := uint64(0)
	if d.CrossHost {
		crossHost = 1
	}
	reg.Register("rccsim_regression_cross_host",
		"1 when the latest diff compared entries from non-comparable hosts", obs.Gauge).Set(crossHost)
}
