package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"rccsim/internal/stats"
)

// startTestServer binds a throwaway port and returns its base URL.
func startTestServer(t *testing.T, m Mounts) string {
	t.Helper()
	addr, err := Serve("127.0.0.1:0", m)
	if err != nil {
		t.Fatal(err)
	}
	return "http://" + addr
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(body)
}

// TestServerEndpoints drives the live introspection server end to end:
// a tracker observing two finished runs must surface cycle-account
// categories and progress on /metrics, the point registry on /runs, and
// liveness on /healthz — the same contract `curl :8080/metrics` relies on
// during a sweep.
func TestServerEndpoints(t *testing.T) {
	tr := NewTracker(NewRegistry())
	base := startTestServer(t, Mounts{Registry: tr.Registry(), Tracker: tr})

	tr.SetTotal(3)
	tr.Begin("DLB/RCC")
	st := stats.New()
	st.Cycles = 1000
	for i := range st.CycleAccount {
		st.CycleAccount[i] = uint64(100 * (i + 1))
	}
	tr.Done("DLB/RCC", st)
	tr.Begin("BH/MESI")

	code, metrics := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	for _, want := range []string{
		`rccsim_cycle_account_total{category="issued"} 100`,
		fmt.Sprintf(`rccsim_cycle_account_total{category="%s"}`, stats.CatRollover),
		"rccsim_points 3",
		"rccsim_points_done 1",
		"rccsim_sim_cycles_total 1000",
		"rccsim_sim_cycles_per_second",
		"# EOF",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	if err := parseOpenMetrics(metrics); err != nil {
		t.Errorf("/metrics not parseable: %v", err)
	}

	code, runs := get(t, base+"/runs")
	if code != http.StatusOK {
		t.Fatalf("/runs status %d", code)
	}
	var snap struct {
		Total     int      `json:"total"`
		Done      int      `json:"done"`
		SimCycles uint64   `json:"sim_cycles"`
		LastDone  string   `json:"last_done"`
		Active    []string `json:"active"`
	}
	if err := json.Unmarshal([]byte(runs), &snap); err != nil {
		t.Fatalf("/runs not JSON: %v\n%s", err, runs)
	}
	if snap.Total != 3 || snap.Done != 1 || snap.SimCycles != 1000 ||
		snap.LastDone != "DLB/RCC" || len(snap.Active) != 1 || snap.Active[0] != "BH/MESI" {
		t.Fatalf("/runs snapshot wrong: %+v", snap)
	}

	for _, ep := range []struct {
		path string
		code int
		body string
	}{
		{"/healthz", http.StatusOK, "ok"},
		{"/debug/pprof/cmdline", http.StatusOK, ""},
		// Unmounted surfaces must not exist.
		{"/spans", http.StatusNotFound, ""},
		{"/ledger", http.StatusNotFound, ""},
		{"/farm/", http.StatusNotFound, ""},
	} {
		if code, body := get(t, base+ep.path); code != ep.code || !strings.Contains(body, ep.body) {
			t.Errorf("%s = %d %q, want %d containing %q", ep.path, code, body, ep.code, ep.body)
		}
	}
}

// TestNilTracker pins tracker nil-safety (CLIs without -serve pass the
// zero path everywhere).
func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.SetTotal(5)
	tr.Begin("x")
	tr.Done("x", nil)
}
