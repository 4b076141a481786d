package experiments

import (
	"encoding/json"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs"
	"rccsim/internal/resultcache"
	"rccsim/internal/stats"
	"rccsim/internal/workload"
)

// tinyBase keeps cache tests to sub-second simulations.
func tinyBase() config.Config {
	cfg := config.Small()
	cfg.Scale = 0.05
	return cfg
}

func tinyBench(t *testing.T) workload.Benchmark {
	t.Helper()
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	return b
}

// TestCachedExecutorWarmRunTicksHooks is the cache-hit hook regression:
// a Preload over a warm disk cache must still fire Started, Observe and
// Progress for every point — the obs.Tracker's counters advance and /runs
// reports done == total with a finite ETA, instead of a sweep that
// appears permanently stalled at zero.
func TestCachedExecutorWarmRunTicksHooks(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), "hook-test-digest")
	if err != nil {
		t.Fatal(err)
	}
	base := tinyBase()
	b := tinyBench(t)
	reqs := []Request{Req(config.RCC, b), Req(config.MESI, b)}

	// Cold run populates the cache.
	cold := NewRunnerJobs(base, 2)
	cold.Cache = cache
	if err := cold.Preload(reqs); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Misses(), uint64(len(reqs)); got != want {
		t.Fatalf("cold run: %d misses, want %d", got, want)
	}

	// Warm run from a fresh Runner (empty memo cache): every point is a
	// disk hit, and every hook must still tick.
	tracker := obs.NewTracker(obs.NewRegistry())
	var started, observed, progressed atomic.Int64
	warm := NewRunnerJobs(base, 2)
	warm.Cache = cache
	warm.Started = func(label string) {
		started.Add(1)
		tracker.Begin(label)
	}
	warm.Observe = func(label string, st *stats.Run) {
		if st == nil {
			t.Errorf("Observe(%s) got nil stats on a cache hit", label)
		}
		observed.Add(1)
		tracker.Done(label, st)
	}
	warm.Progress = func(done, total int, label string) {
		progressed.Add(1)
		tracker.SetTotal(total)
	}
	if err := warm.Preload(reqs); err != nil {
		t.Fatal(err)
	}
	if got, want := cache.Hits(), uint64(len(reqs)); got != want {
		t.Fatalf("warm run: %d hits, want %d (100%% cache hits)", got, want)
	}
	n := int64(len(reqs))
	if started.Load() != n || observed.Load() != n || progressed.Load() != n {
		t.Errorf("warm-cache hooks: started=%d observed=%d progressed=%d, want %d each",
			started.Load(), observed.Load(), progressed.Load(), n)
	}

	// /runs must report the warm sweep as finished with a finite ETA.
	rec := httptest.NewRecorder()
	tracker.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	var snap struct {
		Total      int     `json:"total"`
		Done       int     `json:"done"`
		ETASeconds float64 `json:"eta_seconds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("/runs JSON: %v", err)
	}
	if snap.Total != len(reqs) || snap.Done != len(reqs) {
		t.Errorf("/runs total=%d done=%d, want %d/%d", snap.Total, snap.Done, len(reqs), len(reqs))
	}
	if snap.ETASeconds != 0 {
		t.Errorf("/runs ETA %v on a finished warm sweep, want 0", snap.ETASeconds)
	}
}

// TestCachedExecutorBitIdentical pins the acceptance claim: a run served
// entirely from the disk cache is bit-identical to the run that filled it,
// and to a plain uncached run.
func TestCachedExecutorBitIdentical(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), "identity-test-digest")
	if err != nil {
		t.Fatal(err)
	}
	base := tinyBase()
	b := tinyBench(t)

	plain, err := NewRunnerJobs(base, 1).result(config.RCC, b)
	if err != nil {
		t.Fatal(err)
	}
	// Fresh Runners (empty memo caches) over one disk cache: the first
	// fills it, the second is served from it.
	coldR := NewRunnerJobs(base, 1)
	coldR.Cache = cache
	cold, err := coldR.result(config.RCC, b)
	if err != nil {
		t.Fatal(err)
	}
	warmR := NewRunnerJobs(base, 1)
	warmR.Cache = cache
	warm, err := warmR.result(config.RCC, b)
	if err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", cache.Hits(), cache.Misses())
	}
	pd, cd, wd := plain.Stats.WireDigest(), cold.Stats.WireDigest(), warm.Stats.WireDigest()
	if pd != cd || cd != wd {
		t.Errorf("stats digests diverge: plain=%s cold=%s warm=%s", pd, cd, wd)
	}
	if plain.Energy != cold.Energy || cold.Energy != warm.Energy {
		t.Errorf("energy diverges across cache paths")
	}
}

// TestSweepWithExecutorMatchesDirect runs a sweep through Runner.Cache
// (cold cache, then warm cache) and requires rows identical to the direct
// in-process path — the "byte-identical to -j sequential output" rule,
// checked at the row level the CLI formats from.
func TestSweepWithExecutorMatchesDirect(t *testing.T) {
	cache, err := resultcache.Open(t.TempDir(), "sweep-test-digest")
	if err != nil {
		t.Fatal(err)
	}
	base := tinyBase()
	b := tinyBench(t)
	leases := []uint64{8, 64}

	cached := func() *Runner {
		r := NewRunnerJobs(base, 4)
		r.Cache = cache
		return r
	}
	direct, err := NewRunnerJobs(base, 4).LeaseSweep(b, leases)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := cached().LeaseSweep(b, leases)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := cached().LeaseSweep(b, leases)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(direct, cold) {
		t.Errorf("cold cached sweep differs from direct:\n got  %+v\n want %+v", cold, direct)
	}
	if !reflect.DeepEqual(direct, warm) {
		t.Errorf("warm cached sweep differs from direct:\n got  %+v\n want %+v", warm, direct)
	}
	if got, want := cache.Hits(), uint64(len(leases)); got != want {
		t.Errorf("warm sweep hits=%d, want %d (100%% cache hits)", got, want)
	}
}
