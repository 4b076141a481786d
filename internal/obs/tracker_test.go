package obs

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"

	"rccsim/internal/stats"
)

// TestRunsBeforeFirstPoint pins the /runs endpoint's behaviour in the
// window between startup and the first completed point: with zero points
// done the observed rate is zero, and a naive ETA of (total-done)/rate is
// +Inf — which json.Encode rejects, turning /runs into an empty 200 body
// exactly when an operator first checks on a long sweep. The snapshot must
// instead report a zero ETA and still serve valid JSON listing the
// in-flight labels.
func TestRunsBeforeFirstPoint(t *testing.T) {
	tr := NewTracker(NewRegistry())
	tr.SetTotal(8)
	tr.Begin("DLB/RCC")

	rec := httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if rec.Code != 200 {
		t.Fatalf("/runs status = %d, want 200", rec.Code)
	}
	var snap struct {
		Total      int      `json:"total"`
		Done       int      `json:"done"`
		ETASeconds float64  `json:"eta_seconds"`
		Active     []string `json:"active"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/runs body is not valid JSON before the first point: %v\nbody: %q", err, rec.Body.String())
	}
	if snap.Total != 8 || snap.Done != 0 {
		t.Errorf("snapshot progress = %d/%d, want 0/8", snap.Done, snap.Total)
	}
	if math.IsInf(snap.ETASeconds, 0) || math.IsNaN(snap.ETASeconds) || snap.ETASeconds != 0 {
		t.Errorf("eta_seconds = %v before the first point, want 0", snap.ETASeconds)
	}
	if len(snap.Active) != 1 || snap.Active[0] != "DLB/RCC" {
		t.Errorf("active = %v, want [DLB/RCC]", snap.Active)
	}

	// Completing a point must then produce a finite, positive ETA.
	st := stats.New()
	st.Cycles = 1000
	tr.Done("DLB/RCC", st)
	rec = httptest.NewRecorder()
	tr.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/runs body after first point: %v", err)
	}
	if snap.Done != 1 || snap.ETASeconds <= 0 || math.IsInf(snap.ETASeconds, 0) {
		t.Errorf("after first point: done=%d eta=%v, want done=1 and a finite positive ETA", snap.Done, snap.ETASeconds)
	}
}
