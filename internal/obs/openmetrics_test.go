package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rccsim/internal/obs/span"
	"rccsim/internal/timing"
)

// TestOpenMetricsConformance pins the scrape contract end to end: /metrics
// must serve the exact OpenMetrics 1.0 media type (version and charset
// parameters included — Prometheus negotiates on them), the body must be
// a parseable exposition, and it must terminate with the mandatory # EOF
// marker and nothing after it.
func TestOpenMetricsConformance(t *testing.T) {
	reg := NewRegistry()
	reg.RegisterLabelled("rccsim_cycle_account", "SM-cycles by category", Counter,
		map[string]string{"category": "issued"}).Add(7)
	reg.Register("rccsim_points_per_second", "throughput", Gauge).SetFloat(1.5)
	base := startTestServer(t, Mounts{Registry: reg})

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != OpenMetricsContentType {
		t.Errorf("Content-Type = %q, want %q", ct, OpenMetricsContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	if !strings.HasSuffix(body, "# EOF\n") {
		t.Errorf("exposition does not terminate with # EOF:\n%s", body)
	}
	if strings.Count(body, "# EOF") != 1 {
		t.Errorf("exposition has multiple # EOF markers:\n%s", body)
	}
	if err := parseOpenMetrics(body); err != nil {
		t.Errorf("exposition does not parse: %v\n%s", err, body)
	}
}

// TestSpansEndpoint drives /spans: the summary JSON must round-trip, honor
// ?top=, and report the same segment arithmetic the recorder guarantees.
func TestSpansEndpoint(t *testing.T) {
	rec := span.NewRecorder(1)
	for i := uint64(1); i <= 6; i++ {
		rec.Start(i, 0, int(i), 0x40*i, span.Load, 0)
		rec.Mark(i, span.SegL1, 3)
		rec.Finish(i, span.SegDRAM, timing.Cycle(10*i))
	}
	base := startTestServer(t, Mounts{Registry: NewRegistry(), Spans: rec})

	code, body := get(t, base+"/spans?top=2")
	if code != http.StatusOK {
		t.Fatalf("/spans status %d", code)
	}
	var sum span.Summary
	if err := json.Unmarshal([]byte(body), &sum); err != nil {
		t.Fatalf("/spans not JSON: %v\n%s", err, body)
	}
	if sum.Tracked != 6 || len(sum.Slowest) != 2 || sum.Slowest[0].Total != 60 {
		t.Fatalf("/spans summary wrong: %+v", sum)
	}

	// Without a recorder the endpoint must not exist.
	plain := startTestServer(t, Mounts{Registry: NewRegistry()})
	if code, _ := get(t, plain+"/spans"); code != http.StatusNotFound {
		t.Fatalf("/spans without recorder = %d, want 404", code)
	}
}
