package obs

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"rccsim/internal/stats"
)

// Tracker aggregates run/sweep progress into a Registry and serves the
// /runs JSON registry. It is the bridge between experiments progress
// callbacks (which fire on worker goroutines) and the HTTP scraper, so
// every method is safe for concurrent use.
type Tracker struct {
	reg *Registry

	mu       sync.Mutex
	start    time.Time // monotonic (time.Time carries the monotonic reading)
	total    int
	done     int
	active   map[string]time.Time // label → begin time
	simCyc   uint64               // total simulated cycles completed
	lastDone string

	// Registry-backed series (shared with /metrics).
	sTotal  *Series
	sDone   *Series
	sPPS    *Series
	sCPS    *Series
	sCycles *Series
	acct    []*Series // per cycle-account category, indexed by CycleCat
}

// NewTracker wires a Tracker into reg, registering the shared families.
func NewTracker(reg *Registry) *Tracker {
	t := &Tracker{
		reg:    reg,
		start:  time.Now(),
		active: map[string]time.Time{},
	}
	t.sTotal = reg.Register("rccsim_points", "Total experiment points in this invocation", Gauge)
	t.sDone = reg.Register("rccsim_points_done", "Experiment points completed", Gauge)
	t.sPPS = reg.Register("rccsim_points_per_second", "Completed points per wall-clock second", Gauge)
	t.sCPS = reg.Register("rccsim_sim_cycles_per_second", "Simulated cycles per wall-clock second", Gauge)
	t.sCycles = reg.Register("rccsim_sim_cycles", "Simulated cycles completed across all points", Counter)
	for _, c := range stats.CycleCats() {
		t.acct = append(t.acct, reg.RegisterLabelled(
			"rccsim_cycle_account",
			"SM-cycles attributed to each top-down accounting category",
			Counter,
			map[string]string{"category": c.String()},
		))
	}
	return t
}

// Registry returns the backing registry (CLIs add their own families).
func (t *Tracker) Registry() *Registry { return t.reg }

// SetTotal declares how many points this invocation will run.
func (t *Tracker) SetTotal(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.total = n
	t.mu.Unlock()
	t.sTotal.Set(uint64(n))
}

// Begin marks one labelled point as in-flight.
func (t *Tracker) Begin(label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.active[label] = time.Now()
	t.mu.Unlock()
}

// Done marks one labelled point complete and folds its counters into the
// registry. st may be nil (a failed point still advances progress).
func (t *Tracker) Done(label string, st *stats.Run) {
	if t == nil {
		return
	}
	var cyc uint64
	if st != nil {
		cyc = st.Cycles
		t.sCycles.Add(cyc)
		for i, c := range st.CycleAccount {
			t.acct[i].Add(c)
		}
	}
	t.mu.Lock()
	delete(t.active, label)
	t.done++
	t.simCyc += cyc
	t.lastDone = label
	done, simCyc := t.done, t.simCyc
	elapsed := time.Since(t.start).Seconds()
	t.mu.Unlock()

	t.sDone.Set(uint64(done))
	if elapsed > 0 {
		t.sPPS.SetFloat(float64(done) / elapsed)
		t.sCPS.SetFloat(float64(simCyc) / elapsed)
	}
}

// runsSnapshot is the /runs JSON shape.
type runsSnapshot struct {
	Total          int      `json:"total"`
	Done           int      `json:"done"`
	ElapsedSeconds float64  `json:"elapsed_seconds"`
	PointsPerSec   float64  `json:"points_per_sec"`
	ETASeconds     float64  `json:"eta_seconds"`
	SimCycles      uint64   `json:"sim_cycles"`
	SimCyclesPerS  float64  `json:"sim_cycles_per_sec"`
	LastDone       string   `json:"last_done,omitempty"`
	Active         []string `json:"active"`
}

// snapshot captures the current progress (ETA from the observed rate).
func (t *Tracker) snapshot() runsSnapshot {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := runsSnapshot{
		Total:          t.total,
		Done:           t.done,
		ElapsedSeconds: time.Since(t.start).Seconds(),
		SimCycles:      t.simCyc,
		LastDone:       t.lastDone,
		Active:         make([]string, 0, len(t.active)),
	}
	for l := range t.active {
		s.Active = append(s.Active, l)
	}
	sort.Strings(s.Active)
	if s.ElapsedSeconds > 0 {
		s.PointsPerSec = float64(s.Done) / s.ElapsedSeconds
		s.SimCyclesPerS = float64(s.SimCycles) / s.ElapsedSeconds
	}
	if s.PointsPerSec > 0 && s.Total > s.Done {
		s.ETASeconds = float64(s.Total-s.Done) / s.PointsPerSec
	}
	return s
}

// ServeHTTP renders the /runs JSON registry.
func (t *Tracker) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.snapshot())
}
