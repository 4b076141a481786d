// Command rccperf is the rccsim benchmark. It runs one named workload
// made from -seed: one untimed warm-up pass, then timed passes, each
// simulating the workload sequentially in this one process. Every pass
// is checked, and the command exits 1 if any check fails. It prints
// every metric as "name value unit", then, as its last line, a JSON
// object with the end-to-end metrics (or, with -trace 1, the per-layer
// ones).
//
//	rccperf -workload suite-sc -seed 1
//	rccperf -workload suite-weak -trace 1 -trace-out DIR
//	rccperf -workload suite-sc -format gobench | rccdiff -record -label L
//
// The simulator is measured from outside: rccperf times its calls into
// the simulator's public functions and reads the deterministic counters
// of stats.Run. -trace 1 adds CPU-profiled passes whose samples are
// charged to the simulator's layers (see attrib.go) and writes
// <workload>.cpu.pprof, <workload>.layers.json and <workload>.spans.json
// to -trace-out. bench/README.md documents every metric.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rccsim/internal/config"
)

// traceCPU is the CPU time the traced passes run for: 1,000 samples at
// the profiler's 100 Hz.
const traceCPU = 10 * time.Second

type options struct {
	workload string
	seed     uint64
	seconds  float64
	passes   int
	trace    int
	traceOut string
	format   string
	small    bool
	scale    float64
	progs    int
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command and returns its exit status: 0 when every
// check passed, 1 when one failed, 2 on a usage or I/O error.
func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("rccperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: "+workloadNames())
	fs.Uint64Var(&o.seed, "seed", 1, "seed the simulated workloads are generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "time budget of the timed passes; no pass starts that would likely overrun it (0 = no budget)")
	fs.IntVar(&o.passes, "passes", 5, "maximum number of timed passes, and of traced passes")
	fs.IntVar(&o.trace, "trace", 0, "1 adds CPU-profiled passes and prints the per-layer metrics")
	fs.StringVar(&o.traceOut, "trace-out", filepath.Join(".bench_build", "rccperf-trace"), "directory the traced run writes its profile, layer shares and spans to")
	fs.StringVar(&o.format, "format", "text", "text, or gobench: one go-bench line per timed pass for rccdiff -record")
	fs.BoolVar(&o.small, "small", false, "simulate the small test machine instead of Table III")
	fs.Float64Var(&o.scale, "scale", 1, "workload trace-length scale")
	fs.IntVar(&o.progs, "progs", 0, "cap on mc-family programs (0 = all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, ok := findWorkload(o.workload)
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "rccperf: unexpected argument %q\n", fs.Arg(0))
		return 2
	case !ok:
		fmt.Fprintf(stderr, "rccperf: -workload must be one of %s\n", workloadNames())
		return 2
	case o.passes < 1 || o.trace < 0 || o.trace > 1 || o.scale <= 0 || o.seconds < 0 || o.progs < 0:
		fmt.Fprintln(stderr, "rccperf: need -passes >= 1, -trace 0 or 1, -scale > 0, -seconds >= 0, -progs >= 0")
		return 2
	case o.format != "text" && o.format != "gobench":
		fmt.Fprintln(stderr, "rccperf: -format must be text or gobench")
		return 2
	}

	cfg := config.Default()
	if o.small {
		cfg = config.Small()
	}
	cfg.Seed = o.seed
	cfg.Scale = o.scale
	cfg.Shards = 1
	b := &bench{wl: wl, cfg: cfg, progs: o.progs, spans: newSpanLog(), ref: make([]uint64, refWords)}

	res, err := b.measure(o)
	if err != nil {
		fmt.Fprintf(stderr, "rccperf: %v\n", err)
		return 2
	}
	for _, e := range b.errs {
		fmt.Fprintf(stderr, "rccperf: FAIL %s\n", e)
	}
	if err := res.print(stdout, o, wl); err != nil {
		fmt.Fprintf(stderr, "rccperf: %v\n", err)
		return 2
	}
	if !res.correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// result is everything a run measured.
type result struct {
	correct           bool
	attempted, failed int
	digest            string
	timed             []*pass
	e2e, layer        metrics
}

// measure runs the warm-up, timed and (with -trace 1) traced passes,
// checks them against each other and computes the metrics.
func (b *bench) measure(o options) (*result, error) {
	warm := b.runPass(warmup)
	var timedPasses []*pass
	var spent time.Duration
	for len(timedPasses) < o.passes {
		p := b.runPass(timed)
		timedPasses = append(timedPasses, p)
		spent += p.wall
		perPass := spent / time.Duration(len(timedPasses))
		if o.seconds > 0 && (spent+perPass).Seconds() > o.seconds {
			break
		}
	}
	peakRSS := peakRSSBytes()

	var tracedPasses []*pass
	var prof bytes.Buffer
	if o.trace == 1 {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		cpu0 := cpuTime()
		for len(tracedPasses) < o.passes && cpuTime()-cpu0 < traceCPU {
			tracedPasses = append(tracedPasses, b.runPass(traced))
		}
		pprof.StopCPUProfile()
	}

	r := &result{digest: warm.digestHex, timed: timedPasses}
	all := append(append([]*pass{warm}, timedPasses...), tracedPasses...)
	for _, p := range all {
		// Simulations driven by the step loop are checked against the
		// warm-up's cycles instead; their counters are not finalized.
		if p.digestHex != warm.digestHex && !(p.kind == traced && !b.wl.mc) {
			b.errs = append(b.errs, fmt.Sprintf("%s pass: workload digest %.12s, warm-up %.12s", p.kind, p.digestHex, warm.digestHex))
			p.failed = p.attempted
		}
		r.attempted += p.attempted
		r.failed += p.failed
	}
	r.correct = r.failed == 0 && r.attempted > 0
	r.e2e = endToEnd(timedPasses)
	r.layer = b.layerMetrics(warm, timedPasses, tracedPasses, r, peakRSS)

	if o.trace == 1 {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return nil, err
		}
		lt := attribute(p)
		r.layer = append(r.layer, b.hostMetrics(warm, tracedPasses, lt)...)
		if err := b.writeTrace(o, prof.Bytes(), lt); err != nil {
			return nil, err
		}
	}
	return r, nil
}

// writeTrace writes the traced run's three artifacts.
func (b *bench) writeTrace(o options, prof []byte, lt layerTime) error {
	if err := os.MkdirAll(o.traceOut, 0o755); err != nil {
		return err
	}
	type layerJSON struct {
		Name string  `json:"name"`
		Ns   int64   `json:"cpu_ns"`
		Pct  float64 `json:"pct"`
	}
	doc := struct {
		Workload string      `json:"workload"`
		Seed     uint64      `json:"seed"`
		Samples  int64       `json:"samples"`
		CPUNs    int64       `json:"cpu_ns"`
		AllocNs  int64       `json:"alloc_leaf_cpu_ns"`
		Layers   []layerJSON `json:"layers"`
	}{Workload: b.wl.name, Seed: o.seed, Samples: lt.samples, CPUNs: lt.totalNs, AllocNs: lt.allocNs}
	for i, pct := range lt.shares() {
		doc.Layers = append(doc.Layers, layerJSON{Name: layers[i], Ns: lt.ns[i], Pct: pct})
	}
	layersJSON, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	spansJSON, err := json.Marshal(b.spans)
	if err != nil {
		return err
	}
	for name, data := range map[string][]byte{
		".cpu.pprof":   prof,
		".layers.json": append(layersJSON, '\n'),
		".spans.json":  append(spansJSON, '\n'),
	} {
		if err := os.WriteFile(filepath.Join(o.traceOut, b.wl.name+name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// print writes every metric as "name value unit", then the JSON summary
// as the last line. With -format gobench the metric lines are replaced
// by one go-bench line per timed pass, of raw (uncalibrated) times and
// the pass's host factor.
func (r *result) print(w io.Writer, o options, wl workloadSpec) error {
	var buf bytes.Buffer
	if o.format == "gobench" {
		for _, p := range r.timed {
			fmt.Fprintf(&buf, "BenchmarkRccperf/%s 1 %d ns/op", wl.name, p.wall.Nanoseconds())
			if p.cycles > 0 {
				fmt.Fprintf(&buf, " %.0f simCycles/s", float64(p.cycles)/p.wall.Seconds())
			}
			fmt.Fprintf(&buf, " %.2f runs/s %d B/op %.4f host-factor\n", float64(p.machines)/p.wall.Seconds(), p.alloc, p.host)
		}
	} else {
		fmt.Fprintf(&buf, "workload %s seed %d passes_timed %d runs_timed %d digest %s\n",
			wl.name, o.seed, len(r.timed), runsTimed(r.timed), r.digest)
		for _, m := range append(append(metrics{}, r.e2e...), r.layer...) {
			fmt.Fprintf(&buf, "%s %s %s\n", m.name, strconv.FormatFloat(m.value, 'f', -1, 64), m.unit)
		}
	}
	reported := r.e2e
	if o.trace == 1 {
		reported = r.layer
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.correct, r.attempted, r.failed, map[string]jsonMetric{}}
	for _, m := range reported {
		out.Metrics[m.name] = jsonMetric{m.value, m.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	buf.Write(line)
	buf.WriteByte('\n')
	_, err = w.Write(buf.Bytes())
	return err
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func runsTimed(ps []*pass) int {
	n := 0
	for _, p := range ps {
		n += len(p.runs)
	}
	return n
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports kilobytes
}

// cpuTime is the CPU time the process has used, user plus system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
