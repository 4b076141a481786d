package obs

import (
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"rccsim/internal/obs/span"
)

// OpenMetricsContentType is the media type the OpenMetrics 1.0 spec
// requires for the text exposition format served on /metrics.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// Mounts selects the optional surfaces Serve exposes. A nil field mounts
// nothing, so its endpoint serves 404.
type Mounts struct {
	// Registry serves /metrics as OpenMetrics text.
	Registry *Registry
	// Tracker serves /runs, the JSON point registry.
	Tracker *Tracker
	// Spans serves /spans: the causal-span recorder's summary as JSON —
	// percentile waterfalls per segment, aggregate blame, the critical
	// path, and the top-N slowest sampled ops (?top=N, default 10). The
	// recorder publishes each finished span under its lock, so scraping
	// mid-run observes a consistent snapshot of finished spans.
	Spans *span.Recorder
	// Ledger serves /ledger, the run archive (pass ledger.Handler(l)). It
	// is an opaque http.Handler rather than a *ledger.Ledger because the
	// dependency runs the other way: sim imports obs, and ledger sits
	// above both.
	Ledger http.Handler
}

// Serve binds addr and serves the live introspection endpoints in a
// background goroutine: the surfaces m mounts, plus /healthz and the
// stdlib pprof handlers under /debug/pprof/. It returns the bound address
// (so ":0" works in tests) or an error if the listen fails. The server
// lives for the rest of the process; CLI invocations exit when their run
// does.
func Serve(addr string, m Mounts) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	if reg := m.Registry; reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", OpenMetricsContentType)
			_ = reg.WriteOpenMetrics(w)
		})
	}
	if m.Tracker != nil {
		mux.Handle("/runs", m.Tracker)
	}
	if sp := m.Spans; sp != nil {
		mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
			top := 10
			if q := r.URL.Query().Get("top"); q != "" {
				if n, err := strconv.Atoi(q); err == nil && n >= 0 {
					top = n
				}
			}
			w.Header().Set("Content-Type", "application/json")
			_ = sp.WriteJSON(w, top)
		})
	}
	if m.Ledger != nil {
		mux.Handle("/ledger", m.Ledger)
	}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), nil
}
