package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of the repository's BENCHMARK.json the
// smoke test checks the output against.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name string } `json:"end_to_end"`
	PerLayer  []struct{ Name string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func names(list []struct{ Name string }) []string {
	var out []string
	for _, m := range list {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// Every workload runs traced at a tiny size, passes its checks, prints
// every metric BENCHMARK.json names, ends with the JSON summary of the
// per-layer metrics, and writes its three trace artifacts.
func TestSmokeAllWorkloads(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	if got, want := names(bj.Workloads), []string{"mc-family", "observed", "suite-sc", "suite-weak"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, want %v", got, want)
	}
	dir := t.TempDir()
	for _, w := range workloads {
		args := []string{"-workload", w.name, "-seed", "3", "-small", "-scale", "0.05", "-passes", "1", "-trace", "1", "-trace-out", dir}
		if w.mc {
			args = append(args, "-progs", "2")
		}
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 0 {
			t.Fatalf("%s: exit %d\n%s%s", w.name, code, out.String(), errb.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		printed := map[string]bool{}
		for _, l := range lines[:len(lines)-1] {
			printed[strings.Fields(l)[0]] = true
		}
		for _, name := range append(names(bj.EndToEnd), names(bj.PerLayer)...) {
			if !printed[name] {
				t.Errorf("%s: metric %s not printed", w.name, name)
			}
		}
		var sum struct {
			Correct           bool
			Attempted, Failed int
			Metrics           map[string]jsonMetric
		}
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
			t.Fatalf("%s: last line is not the JSON summary: %v", w.name, err)
		}
		var keys []string
		for k := range sum.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if !sum.Correct || sum.Attempted == 0 || sum.Failed != 0 || strings.Join(keys, ",") != strings.Join(names(bj.PerLayer), ",") {
			t.Errorf("%s: summary %+v, want correct with exactly the per-layer metrics", w.name, sum)
		}
		for _, ext := range []string{".cpu.pprof", ".layers.json", ".spans.json"} {
			if _, err := os.Stat(filepath.Join(dir, w.name+ext)); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
		}
	}
}

// Untraced, the summary holds exactly the end-to-end metrics, and
// -format gobench prints one go-bench line per timed pass.
func TestSmokeUntracedGobench(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var out, errb bytes.Buffer
	args := []string{"-workload", "suite-weak", "-small", "-scale", "0.05", "-passes", "2", "-format", "gobench"}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d\n%s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("got %d lines, want 2 go-bench lines and the summary:\n%s", len(lines), out.String())
	}
	for _, l := range lines[:2] {
		if f := strings.Fields(l); f[0] != "BenchmarkRccperf/suite-weak" || f[1] != "1" || f[3] != "ns/op" || !strings.Contains(l, " simCycles/s") {
			t.Errorf("not a go-bench line: %q", l)
		}
	}
	var sum struct{ Metrics map[string]jsonMetric }
	if err := json.Unmarshal([]byte(lines[2]), &sum); err != nil {
		t.Fatal(err)
	}
	for _, name := range names(bj.EndToEnd) {
		if m, ok := sum.Metrics[name]; !ok || m.Value <= 0 {
			t.Errorf("end-to-end metric %s = %+v, want a positive value", name, m)
		}
	}
	if len(sum.Metrics) != len(bj.EndToEnd) {
		t.Errorf("summary has %d metrics, want the %d end-to-end ones", len(sum.Metrics), len(bj.EndToEnd))
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "nope"},
		{"-workload", "suite-sc", "-trace", "2"},
		{"-workload", "suite-sc", "-format", "csv"},
		{"-workload", "suite-sc", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q, want 2 and no output", args, code, out.String())
		}
	}
}
