package cli

import (
	"encoding/json"
	"io"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/ledger"
	"rccsim/internal/stats"
	"rccsim/internal/workload"
)

// TestOpenTraceUnknownFormatKeepsFile: a bad -trace-format is an error
// before the -trace file is created, so an existing file survives.
func TestOpenTraceUnknownFormatKeepsFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "keep.json")
	if err := os.WriteFile(path, []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	f := Flags{Trace: path, TraceFormat: "bogus"}
	if _, _, err := f.OpenTrace(); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("OpenTrace err = %v, want an unknown-format error", err)
	}
	if b, _ := os.ReadFile(path); string(b) != "keep" {
		t.Fatalf("trace file now holds %q, want it untouched", b)
	}
	if _, _, err := (&Flags{TraceFormat: "jsonl", MetricsInterval: 10}).OpenTrace(); err == nil || !strings.Contains(err.Error(), "-metrics-interval") {
		t.Fatalf("-metrics-interval without -trace: err = %v, want it rejected", err)
	}
}

// TestOpenTraceUnknownFormatWithoutTrace: an unknown -trace-format is an
// error even when -trace is unset and nothing would be traced, as
// -metrics-interval without -trace is; the default format is not.
func TestOpenTraceUnknownFormatWithoutTrace(t *testing.T) {
	if _, _, err := (&Flags{TraceFormat: "bogus"}).OpenTrace(); err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("OpenTrace err = %v, want an unknown-format error", err)
	}
	sink, file, err := (&Flags{TraceFormat: "jsonl"}).OpenTrace()
	if sink != nil || file != nil || err != nil {
		t.Fatalf("OpenTrace without -trace = %v, %v, %v; want nothing", sink, file, err)
	}
}

// TestSessionHooks drives a sweep through a session with -serve and
// -ledger: the tracker sees every point finish and the recorded entry
// holds one run per sweep point, keyed "bench/protocol@i".
func TestSessionHooks(t *testing.T) {
	base := config.Small()
	base.Scale = 0.05
	f := Flags{Jobs: 3, Serve: "127.0.0.1:0", Ledger: t.TempDir()}
	s, err := f.Start("clitest", "clitest", base, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, _ := workload.ByName("BH")
	if _, err := s.Runner.TCLeaseSweep(b, []uint64{100, 400, 1600}); err != nil {
		t.Fatal(err)
	}
	if err := s.Record(ledger.KindSweep, "clitest tclease BH"); err != nil {
		t.Fatal(err)
	}

	var runs struct {
		Total  int      `json:"total"`
		Done   int      `json:"done"`
		Active []string `json:"active"`
	}
	rec := httptest.NewRecorder()
	s.Tracker.ServeHTTP(rec, httptest.NewRequest("GET", "/runs", nil))
	if err := json.Unmarshal(rec.Body.Bytes(), &runs); err != nil {
		t.Fatalf("/runs JSON: %v", err)
	}
	if runs.Total != 3 || runs.Done != 3 || len(runs.Active) != 0 {
		t.Errorf("/runs = %s, want 3/3 done and nothing active", rec.Body)
	}

	_, e, err := s.Ledger.Resolve("@-1")
	if err != nil {
		t.Fatal(err)
	}
	var labels []string
	for _, r := range e.Runs {
		labels = append(labels, r.Label)
	}
	if want := []string{"BH/TCS@0", "BH/TCS@1", "BH/TCS@2"}; e.Kind != ledger.KindSweep || !reflect.DeepEqual(labels, want) {
		t.Errorf("ledger entry kind %q runs %v, want %q %v", e.Kind, labels, ledger.KindSweep, want)
	}
}

// TestStartFailureStopsProfiles: a failing step of Start returns its
// error (no panic) and stops and writes the CPU profile it started.
func TestStartFailureStopsProfiles(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil || os.WriteFile(file, nil, 0o644) != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	for _, f := range []Flags{{Ledger: file}, {Serve: ln.Addr().String()}} {
		f.CPUProfile = filepath.Join(t.TempDir(), "cpu.pprof")
		if s, err := f.Start("clitest", "clitest", config.Small(), nil); err == nil || s != nil {
			t.Fatalf("Start(%+v) = %v, %v; want an error", f, s, err)
		}
		if st, err := os.Stat(f.CPUProfile); err != nil || st.Size() == 0 {
			t.Errorf("%+v: CPU profile not written: %v", f, err)
		}
		if err := pprof.StartCPUProfile(io.Discard); err != nil {
			t.Fatalf("%+v: CPU profile still running after a failed Start: %v", f, err)
		}
		pprof.StopCPUProfile()
	}
}

// TestAppendVerdict: the auto-diff after a ledger append says NO-DATA when
// the previous entry shares no run with the new one (a bench entry, as
// rccperf records), and OK once it compares a matching run.
func TestAppendVerdict(t *testing.T) {
	l, err := ledger.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(&ledger.Entry{Kind: ledger.KindBench, Label: "rccperf",
		Benchmarks: []ledger.BenchRec{{Name: "BenchmarkRccperf/suite-sc", Samples: []ledger.Sample{{NsPerOp: 1}}}}}); err != nil {
		t.Fatal(err)
	}
	run := ledger.RunRec{Label: "DLB/RCC"}
	run.SetStats(stats.New())
	s := &Session{tool: "clitest", Ledger: l}
	for _, want := range []string{": NO-DATA", ": OK"} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		stderr := os.Stderr
		os.Stderr = w
		err = s.Append(ledger.KindRun, "stats DLB RCC", []ledger.RunRec{run})
		os.Stderr = stderr
		w.Close()
		out, _ := io.ReadAll(r)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(out), want) {
			t.Errorf("Append printed %q, want a verdict %q", out, want)
		}
	}
}
