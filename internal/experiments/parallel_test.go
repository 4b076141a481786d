package experiments

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// TestParallelMatchesSequential is the acceptance bar for the parallel
// Runner: the full Fig 9 matrix computed with 4 concurrent workers must be
// byte-identical — down to every stats.Run counter — to the strictly
// sequential (-j 1) run. Run under -race this also exercises the memo
// cache concurrently.
func TestParallelMatchesSequential(t *testing.T) {
	cfg := config.Small()
	seq := NewRunnerJobs(cfg, 1)
	par := NewRunnerJobs(cfg, 4)

	rowsSeq, err := seq.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	rowsPar, err := par.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rowsSeq, rowsPar) {
		t.Fatal("parallel Fig9 rows differ from sequential rows")
	}
	if len(seq.cache) != len(par.cache) {
		t.Fatalf("cache sizes differ: sequential %d, parallel %d", len(seq.cache), len(par.cache))
	}
	for k, fs := range seq.cache {
		fp, ok := par.cache[k]
		if !ok {
			t.Fatalf("parallel cache missing key %+v", k)
		}
		if !reflect.DeepEqual(fs.res.Stats, fp.res.Stats) {
			t.Fatalf("%v/%s: stats.Run differs between sequential and parallel runs", k.protocol, k.bench)
		}
		if !reflect.DeepEqual(fs.res.Energy, fp.res.Energy) {
			t.Fatalf("%v/%s: energy differs between sequential and parallel runs", k.protocol, k.bench)
		}
	}
}

// TestConcurrentFiguresShareRuns hammers one Runner from several
// goroutines requesting overlapping figures (Figs 1/8/9/10 share the MESI
// and RCC runs) and asserts the singleflight memo executed every distinct
// simulation exactly once. Meaningful under -race.
func TestConcurrentFiguresShareRuns(t *testing.T) {
	r := testRunner()
	errs := make([]error, 8)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			switch i % 4 {
			case 0:
				_, errs[i] = r.Fig1()
			case 1:
				_, errs[i] = r.Fig8()
			case 2:
				_, errs[i] = r.Fig9()
			case 3:
				_, errs[i] = r.Fig10()
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", i, err)
		}
	}
	if got, want := r.runs.Load(), uint64(len(r.cache)); got != want {
		t.Fatalf("executed %d simulations for %d distinct keys (memo dedupe failed)", got, want)
	}
}

// TestSweepParallelDeterminism checks the non-memoized sweep path: rows
// from a 4-worker sweep must equal the sequential ones. The points'
// stats must differ from each other, or a result delivered to the wrong
// point would go unseen.
func TestSweepParallelDeterminism(t *testing.T) {
	cfg, b := sweepBench(t)
	warps := []int{2, 4, 8}
	seqRows, err := NewRunnerJobs(cfg, 1).WarpSweep(b, warps)
	if err != nil {
		t.Fatal(err)
	}
	parRows, err := NewRunnerJobs(cfg, 4).WarpSweep(b, warps)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(seqRows); i++ {
		if a, b := seqRows[i-1], seqRows[i]; a.Cycles == b.Cycles && a.StallCycles == b.StallCycles {
			t.Fatalf("points %d and %d have equal stats (%+v, %+v): the comparison is blind to a swap", i-1, i, a, b)
		}
	}
	if !reflect.DeepEqual(seqRows, parRows) {
		t.Fatalf("parallel sweep rows differ:\nseq %+v\npar %+v", seqRows, parRows)
	}
}

func TestParallelDo(t *testing.T) {
	const n = 100
	out := make([]int, n)
	if err := parallelDo(8, n, func(i int) error {
		out[i] = i * i
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// The reported error is the lowest-index one, independent of
	// completion order, so error paths are deterministic too.
	err := parallelDo(8, n, func(i int) error {
		if i%10 == 3 {
			return fmt.Errorf("point %d failed", i)
		}
		return nil
	})
	if err == nil || err.Error() != "point 3 failed" {
		t.Fatalf("err = %v, want lowest-index failure (point 3)", err)
	}
	// Zero-length input and the sequential fast path are fine.
	if err := parallelDo(4, 0, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := parallelDo(1, 3, func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
}

// TestPreloadWarmsCache checks that a batch Preload leaves the per-figure
// loops nothing to simulate: Fig8 after its own matrix is preloaded runs
// zero new simulations.
func TestPreloadWarmsCache(t *testing.T) {
	r := testRunner()
	if err := r.Preload(crossReqs(Fig8Protocols, workload.All())); err != nil {
		t.Fatal(err)
	}
	before := r.runs.Load()
	if _, err := r.Fig8(); err != nil {
		t.Fatal(err)
	}
	if r.runs.Load() != before {
		t.Fatalf("Fig8 ran %d extra simulations after Preload", r.runs.Load()-before)
	}
}
