package experiments

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// traceTCLeaseSweep runs a small TCLeaseSweep with a per-point buffering
// bus from Runner.Attach and returns the buffers replayed in point order
// as JSONL — the same recipe cmd/rccsweep -trace uses.
func traceTCLeaseSweep(t *testing.T, jobs int) []byte {
	t.Helper()
	base := config.Small()
	base.Scale = 0.05
	b, ok := workload.ByName("BH")
	if !ok {
		t.Fatal("benchmark BH missing")
	}
	var mu sync.Mutex
	bufs := map[int]*trace.BufferSink{}
	r := NewRunnerJobs(base, jobs)
	r.Attach = func(point int) (*trace.Bus, *obs.Heat) {
		buf := &trace.BufferSink{}
		mu.Lock()
		bufs[point] = buf
		mu.Unlock()
		return trace.NewBus(buf), nil
	}
	if _, err := r.TCLeaseSweep(b, []uint64{100, 400, 1600}); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	dst := trace.NewJSONLSink(&out)
	for i := 0; i < len(bufs); i++ {
		bufs[i].Replay(dst)
	}
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestSweepTraceDeterminism requires the replayed sweep trace to be
// byte-identical between a sequential and a parallel run (the contract
// cmd/rccsweep -trace relies on). Under -race this also exercises the
// one-bus-per-point ownership discipline.
func TestSweepTraceDeterminism(t *testing.T) {
	seq := traceTCLeaseSweep(t, 1)
	par := traceTCLeaseSweep(t, 4)
	if len(seq) == 0 {
		t.Fatal("sweep produced no trace events")
	}
	if !bytes.Equal(seq, par) {
		sl := bytes.Split(seq, []byte("\n"))
		pl := bytes.Split(par, []byte("\n"))
		for i := 0; i < len(sl) && i < len(pl); i++ {
			if !bytes.Equal(sl[i], pl[i]) {
				t.Fatalf("trace differs between -j 1 and -j 4 at line %d:\n seq %s\n par %s", i+1, sl[i], pl[i])
			}
		}
		t.Fatalf("trace length differs between -j 1 and -j 4: %d vs %d lines", len(sl), len(pl))
	}
}

// TestProgressCallback checks sweep progress fires once per point, under
// the point's "bench/protocol@i" label, and ends at done == total.
func TestProgressCallback(t *testing.T) {
	base := config.Small()
	base.Scale = 0.05
	b, _ := workload.ByName("BH")
	var mu sync.Mutex
	var calls []int
	labels := map[string]bool{}
	total := -1
	r := NewRunnerJobs(base, 2)
	r.Progress = func(done, tot int, label string) {
		mu.Lock()
		calls = append(calls, done)
		labels[label] = true
		total = tot
		mu.Unlock()
	}
	if _, err := r.TCLeaseSweep(b, []uint64{100, 1600}); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 2 || total != 2 {
		t.Fatalf("progress calls %v (total %d), want 2 calls with total 2", calls, total)
	}
	if !labels["BH/TCS@0"] || !labels["BH/TCS@1"] {
		t.Fatalf("progress labels %v, want BH/TCS@0 and BH/TCS@1", labels)
	}
	seen := map[int]bool{}
	for _, d := range calls {
		if d < 1 || d > 2 || seen[d] {
			t.Fatalf("bad done sequence %v", calls)
		}
		seen[d] = true
	}
}

// TestStderrProgress checks the rendered line shape (done/total, ETA) and
// the final newline.
func TestStderrProgress(t *testing.T) {
	var buf bytes.Buffer
	p := StderrProgress(&buf, "sweep")
	p(1, 2, "BH/RCC")
	p(2, 2, "BH/RCC")
	out := buf.String()
	if !strings.Contains(out, "sweep: 1/2 points") || !strings.Contains(out, "ETA") {
		t.Fatalf("progress line wrong: %q", out)
	}
	if !strings.Contains(out, "BH/RCC") || !strings.Contains(out, "/s,") {
		t.Fatalf("progress line missing label or rate: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatalf("no final newline after completion: %q", out)
	}
}

// TestSweepPointLabels: concurrent sweep points begin under distinct
// labels, so an obs.Tracker (keyed by label) holds all of them in flight.
func TestSweepPointLabels(t *testing.T) {
	base := config.Small()
	base.Scale = 0.05
	b, _ := workload.ByName("BH")
	var mu sync.Mutex
	var started []string
	r := NewRunnerJobs(base, 3)
	r.Started = func(label string) {
		mu.Lock()
		started = append(started, label)
		mu.Unlock()
	}
	if _, err := r.TCLeaseSweep(b, []uint64{100, 400, 1600}); err != nil {
		t.Fatal(err)
	}
	sort.Strings(started)
	if want := []string{"BH/TCS@0", "BH/TCS@1", "BH/TCS@2"}; !reflect.DeepEqual(started, want) {
		t.Fatalf("Started labels %v, want %v", started, want)
	}
}
