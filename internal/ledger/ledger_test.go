package ledger

import (
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rccsim/internal/stats"
)

// fillRun sets every uint64 leaf of a stats.Run to a distinct non-zero
// value via reflection, so a ledger round-trip exercises the complete
// wire surface — a counter added to stats.Run later is covered here
// automatically, with no test edit.
func fillRun(t *testing.T) *stats.Run {
	t.Helper()
	r := stats.New()
	c := uint64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(c)
			c++
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(r).Elem())
	if c < 10 {
		t.Fatal("reflection walk found almost no counters — wrong type?")
	}
	return r
}

// TestLedgerRoundTrip pins the full archive path: a maximally-populated
// counter set survives SetStats → Append → Get → DecodeStats bit-exactly,
// and the returned ID is stable across re-encodings.
func TestLedgerRoundTrip(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st := fillRun(t)
	rec := RunRec{
		Label: "BH/RCC",
		Spans: map[string]SpanQ{"total": {P50: 1, P90: 2, P99: 3, Max: 4}, "l2": {P50: 5, P90: 6, P99: 7, Max: 8}},
		Heat:  []HeatLine{{Line: 0x1240, Total: 42, Err: 1, Counts: map[string]uint64{"reads": 40, "writes": 2}}},
	}
	rec.SetStats(st)
	e := &Entry{
		Kind:  KindRun,
		Label: "round-trip",
		Host:  Host{OS: "linux", Arch: "amd64", Kernel: "k", GoVersion: "go1.22", Cores: 1},
		Benchmarks: []BenchRec{{Name: "BenchmarkX", Iterations: 3,
			Samples: []Sample{{NsPerOp: 1.5, Metrics: map[string]float64{"ipc": 0.9}}}}},
		Runs: []RunRec{rec},
	}
	id, err := l.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	wantID, err := e.ID()
	if err != nil {
		t.Fatal(err)
	}
	if id != wantID {
		t.Fatalf("Append ID %s != Entry.ID %s", id, wantID)
	}
	got, err := l.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, e) {
		t.Fatalf("entry round-trip mismatch:\n got %+v\nwant %+v", got, e)
	}
	back, err := got.Runs[0].DecodeStats()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, st) {
		t.Fatal("stats.Run did not survive the ledger round-trip bit-exactly")
	}
}

// TestAppendIsAppendOnly: re-appending identical content adds an INDEX
// line pointing at the same object; distinct content gets a new object.
func TestAppendIsAppendOnly(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := &Entry{Kind: KindBench, Label: "a", Benchmarks: []BenchRec{{Name: "B", Samples: []Sample{{NsPerOp: 1}}}}}
	id1, err := l.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := l.Append(e)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatalf("identical content produced distinct IDs %s %s", id1, id2)
	}
	e2 := &Entry{Kind: KindBench, Label: "b", Benchmarks: []BenchRec{{Name: "B", Samples: []Sample{{NsPerOp: 2}}}}}
	id3, err := l.Append(e2)
	if err != nil {
		t.Fatal(err)
	}
	if id3 == id1 {
		t.Fatal("distinct content collided")
	}
	idx, err := l.Index()
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 3 {
		t.Fatalf("INDEX has %d lines, want 3", len(idx))
	}
	for i, line := range idx {
		if line.Seq != i {
			t.Fatalf("INDEX line %d has seq %d", i, line.Seq)
		}
	}
}

func TestResolve(t *testing.T) {
	l, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for _, lbl := range []string{"one", "two", "three"} {
		id, err := l.Append(&Entry{Kind: KindBench, Label: lbl,
			Benchmarks: []BenchRec{{Name: "B", Samples: []Sample{{NsPerOp: float64(len(lbl))}}}}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for ref, want := range map[string]string{"@0": "one", "@2": "three", "@-1": "three", "@-3": "one", ids[1][:8]: "two"} {
		_, e, err := l.Resolve(ref)
		if err != nil {
			t.Fatalf("Resolve(%q): %v", ref, err)
		}
		if e.Label != want {
			t.Fatalf("Resolve(%q) = %q, want %q", ref, e.Label, want)
		}
	}
	for _, bad := range []string{"@3", "@-4", "abc", "ffffffff"} {
		if _, _, err := l.Resolve(bad); err == nil {
			t.Fatalf("Resolve(%q) unexpectedly succeeded", bad)
		}
	}
}

func TestHostComparable(t *testing.T) {
	full := Host{CPU: "X", Cores: 4, GoVersion: "go1.22", OS: "linux", Arch: "amd64", Kernel: "k1", GitSHA: "aaa"}
	cases := []struct {
		name string
		a, b Host
		want bool
	}{
		{"identical", full, full, true},
		{"git sha ignored", full, Host{CPU: "X", Cores: 4, GoVersion: "go1.22", OS: "linux", Arch: "amd64", Kernel: "k1", GitSHA: "bbb"}, true},
		{"dirty marker ignored", full, Host{CPU: "X", Cores: 4, GoVersion: "go1.22", OS: "linux", Arch: "amd64", Kernel: "k1", GitSHA: "aaa-dirty"}, true},
		{"unknown fields ignored", full, Host{OS: "linux", Arch: "amd64"}, true},
		{"legacy vs legacy", Host{OS: "linux", Arch: "amd64", Kernel: "k1"}, Host{OS: "linux", Arch: "amd64", Kernel: "k1"}, true},
		{"kernel differs", full, Host{OS: "linux", Arch: "amd64", Kernel: "k2"}, false},
		{"cpu differs", full, Host{CPU: "Y", OS: "linux", Arch: "amd64"}, false},
		{"cores differ", full, Host{Cores: 8}, false},
	}
	for _, c := range cases {
		if got := c.a.Comparable(c.b); got != c.want {
			t.Errorf("%s: Comparable = %v, want %v", c.name, got, c.want)
		}
		if got := c.b.Comparable(c.a); got != c.want {
			t.Errorf("%s (reversed): Comparable = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestFingerprintGitDirty records the SHA of a scratch repository: the
// bare short SHA while the checkout is clean, "<sha>-dirty" once a
// tracked file is edited. An untracked file leaves it clean.
func TestFingerprintGitDirty(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	git := func(args ...string) string {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
		return strings.TrimSpace(string(out))
	}
	write := func(name, body string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git("init", "-q")
	write("a.txt", "one\n")
	git("add", "a.txt")
	git("commit", "-q", "-m", "init")
	sha := git("rev-parse", "--short", "HEAD")

	write("untracked.txt", "x\n")
	if got := Fingerprint(dir).GitSHA; got != sha {
		t.Fatalf("clean checkout: GitSHA %q, want %q", got, sha)
	}
	write("a.txt", "two\n")
	if got := Fingerprint(dir).GitSHA; got != sha+"-dirty" {
		t.Fatalf("edited tracked file: GitSHA %q, want %q", got, sha+"-dirty")
	}
}

func TestParseBenchOutput(t *testing.T) {
	in := `goos: linux
goarch: amd64
BenchmarkSimulatorThroughput-4   2  15503495 ns/op  674761 simCycles/s  5105364 B/op  7500 allocs/op
BenchmarkProtocols/RCC-4         1  28053029 ns/op  34031 gpuCycles  0.9 ipc
BenchmarkSimulatorThroughput-4   2  16097449 ns/op  649862 simCycles/s  5201864 B/op  7500 allocs/op
PASS
ok  	rccsim	1.2s
`
	recs, err := ParseBenchOutput(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	st := recs[0]
	if st.Name != "BenchmarkSimulatorThroughput" {
		t.Fatalf("procs suffix not trimmed: %q", st.Name)
	}
	if len(st.Samples) != 2 {
		t.Fatalf("repeat grouping: got %d samples, want 2", len(st.Samples))
	}
	if st.Samples[0].Metrics["simCycles/s"] != 674761 || st.Samples[1].Metrics["simCycles/s"] != 649862 {
		t.Fatalf("samples out of order: %+v", st.Samples)
	}
	if recs[1].Name != "BenchmarkProtocols/RCC" || recs[1].Samples[0].Metrics["ipc"] != 0.9 {
		t.Fatalf("sub-benchmark record wrong: %+v", recs[1])
	}
	if _, err := ParseBenchOutput(strings.NewReader("PASS\n")); err == nil {
		t.Fatal("expected an error on input with no benchmark lines")
	}
}

// TestCollectorDeterminism: the recorded entry must not depend on the
// completion order of worker goroutines — observe points in shuffled
// order and expect sorted, stable output.
func TestCollectorDeterminism(t *testing.T) {
	mk := func(order []int) []RunRec {
		c := NewCollector()
		for _, i := range order {
			st := stats.New()
			st.Cycles = uint64(100 + i)
			st.CycleAccount[stats.CatIssued] = uint64(100+i) * 2
			c.Observe(fmt.Sprintf("BH/RCC@%d", i), st)
		}
		return c.RunRecs()
	}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}
	want := mk(order)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		if got := mk(order); !reflect.DeepEqual(got, want) {
			t.Fatalf("collector output depends on observation order (trial %d)", trial)
		}
	}
	if want[0].Label != "BH/RCC@0" {
		t.Fatalf("point key = %q, want BH/RCC@0", want[0].Label)
	}
}

// FuzzDecodeEntry: arbitrary bytes either decode to an entry or return an
// error, and any two decoded entries diff, render and plant without
// panicking. The seeds in testdata/fuzz are a run entry with spans and
// heat, a pair of rccperf bench entries, and a truncated entry.
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, a, b []byte) {
		base, err := DecodeEntry(a)
		if (base == nil) == (err == nil) {
			t.Fatalf("DecodeEntry returned entry %v with error %v", base, err)
		}
		cur, err := DecodeEntry(b)
		if err != nil || base == nil {
			return
		}
		_ = Compute("a", base, "b", cur, Options{}).Format()
		if p, err := Plant(cur, stats.CatMSHRFull, 0.25); err == nil {
			_ = Compute("b", cur, "p", p, Options{}).Format()
		}
	})
}
