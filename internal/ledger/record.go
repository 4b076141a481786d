// Recording front-end: parsing `go test -bench` text output (rccperf
// -format gobench included) into repeat-level BenchRecs for rccdiff
// -record and scripts/bench_baseline.sh.
package ledger

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ParseBenchOutput reads `go test -bench` text from r and groups the
// benchmark lines into repeat-level records: with -count=N each benchmark
// name appears N times and contributes N samples, in output order. Lines
// that are not benchmark results (headers, PASS, ok) are ignored. The
// trailing -<procs> suffix Go appends to benchmark names is stripped, so
// records match across GOMAXPROCS settings (the fingerprint still records
// the difference).
func ParseBenchOutput(r io.Reader) ([]BenchRec, error) {
	var order []string
	recs := map[string]*BenchRec{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		// name, iterations, then (value, unit) pairs.
		if len(f) < 4 || (len(f)-2)%2 != 0 {
			continue
		}
		iters, err := strconv.Atoi(f[1])
		if err != nil {
			continue
		}
		name := trimProcsSuffix(f[0])
		s := Sample{Metrics: map[string]float64{}}
		ok := true
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				ok = false
				break
			}
			if f[i+1] == "ns/op" {
				s.NsPerOp = v
			} else {
				s.Metrics[f[i+1]] = v
			}
		}
		if !ok {
			continue
		}
		if len(s.Metrics) == 0 {
			s.Metrics = nil
		}
		rec, seen := recs[name]
		if !seen {
			rec = &BenchRec{Name: name, Iterations: iters}
			recs[name] = rec
			order = append(order, name)
		}
		rec.Samples = append(rec.Samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: parse bench output: %w", err)
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("ledger: no benchmark lines found in input")
	}
	out := make([]BenchRec, 0, len(order))
	for _, n := range order {
		out = append(out, *recs[n])
	}
	return out, nil
}

// trimProcsSuffix drops Go's -<GOMAXPROCS> benchmark-name suffix
// (BenchmarkFoo-8 → BenchmarkFoo) without touching sub-benchmark paths.
func trimProcsSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
