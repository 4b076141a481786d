// Command rccsweep runs parameter sweeps around the paper's design points:
// warps per SM (the TLP that hides SC stalls), the TC lease the baselines
// depend on, the timestamp width behind the Sec. III-D rollover
// mechanism, and the warp scheduler. (RCC's fixed lease has no sweep: with
// the predictor off it does not change simulated behaviour at all, as
// Sec. III-E expects of logical time, and a test pins that.)
//
//	rccsweep [-bench BH] [-scale f] [-j N] [-progress]
//	         [-trace file [-trace-format jsonl|perfetto] [-metrics-interval N]]
//	         [-hotspots N] [-ledger dir] [-serve addr]
//	         [-cpuprofile file] [-memprofile file] <sweep>
//
// Sweeps: warps, tclease, tsbits, sched. Each runs on one
// experiments.Runner, the run context rccbench's figures use too, so the
// flags shared with rccbench (internal/cli) mean the same here. Sweep
// points are independent simulations; -j runs up to N of them
// concurrently (0 = one per CPU) with output identical to a sequential
// run. Point i of a sweep is labelled "bench/protocol@i" in -progress,
// /runs and -ledger entries.
//
// -trace captures every point's event stream: each point runs against its
// own buffering bus and the buffers are replayed into the output file in
// point order, so the trace is byte-identical for any -j. -hotspots
// merges every point's contention sketch the same way.
package main

import (
	"flag"
	"fmt"
	"os"
	"sync"

	"rccsim/internal/cli"
	"rccsim/internal/config"
	"rccsim/internal/experiments"
	"rccsim/internal/ledger"
	"rccsim/internal/obs"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

var (
	bench = flag.String("bench", "BH", "benchmark to sweep")
	scale = flag.Float64("scale", 0.5, "workload scale")
	flags cli.Flags
)

var sweeps = map[string]func(*experiments.Runner, workload.Benchmark) error{
	"warps":   sweepWarps,
	"tclease": sweepTCLease,
	"tsbits":  sweepTSBits,
	"sched":   sweepSched,
}

func main() {
	flags.Register(flag.CommandLine)
	flag.Parse()
	os.Exit(realMain())
}

func realMain() int {
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: rccsweep [-bench BH] [-scale f] [-j N] [-trace file] [-hotspots N] [-ledger dir] [-serve addr] <sweep>")
		fmt.Fprintln(os.Stderr, "sweeps: warps tclease tsbits sched")
		return 2
	}
	b, ok := workload.ByName(*bench)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", *bench)
		return 1
	}
	sweep, ok := sweeps[flag.Arg(0)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown sweep %q\n", flag.Arg(0))
		return 1
	}
	dst, traceFile, err := flags.OpenTrace()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
		return 1
	}
	if traceFile != nil {
		defer traceFile.Close()
	}

	base := config.Default()
	base.Scale = *scale
	s, err := flags.Start("rccsweep", "rccsweep "+flag.Arg(0), base, nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccsweep: %v\n", err)
		return 1
	}
	defer s.Close()
	pts := &points{buses: map[int]*trace.Bus{}, bufs: map[int]*trace.BufferSink{}, heats: map[int]*obs.Heat{}}
	if dst != nil || flags.Hotspots > 0 {
		s.Runner.Attach = pts.attach
	}

	err = sweep(s.Runner, b)
	if err == nil && dst != nil {
		err = pts.replay(dst)
		if cerr := dst.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil && flags.Hotspots > 0 {
		fmt.Printf("\ntop %d contended lines (merged across %d points)\n", flags.Hotspots, len(pts.heats))
		pts.mergedHeat().WriteTable(os.Stdout, flags.Hotspots)
	}
	if err == nil {
		err = s.Record(ledger.KindSweep, fmt.Sprintf("rccsweep %s %s", flag.Arg(0), b.Name))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	return 0
}

// points hands each sweep point its own buffering trace bus and heat
// sketch (Runner.Attach, called from worker goroutines), then replays the
// buffers and merges the sketches in point order, keeping the trace file
// and hotspot table independent of worker scheduling.
type points struct {
	mu    sync.Mutex
	buses map[int]*trace.Bus
	bufs  map[int]*trace.BufferSink
	heats map[int]*obs.Heat
}

func (p *points) attach(point int) (*trace.Bus, *obs.Heat) {
	var bus *trace.Bus
	heat := flags.NewHeat()
	p.mu.Lock()
	defer p.mu.Unlock()
	if flags.Trace != "" {
		buf := &trace.BufferSink{}
		bus = flags.NewBus(buf)
		p.buses[point], p.bufs[point] = bus, buf
	}
	if heat != nil {
		p.heats[point] = heat
	}
	return bus, heat
}

// replay closes each point's bus (flushing its final interval-metrics
// row into the buffer) and streams the buffers into dst in point order,
// separated by "sweep-point" marker events.
func (p *points) replay(dst trace.Sink) error {
	for i := 0; i < len(p.bufs); i++ {
		if err := p.buses[i].Close(); err != nil {
			return err
		}
		dst.Event(&trace.Event{Kind: trace.KindMetrics, Label: "sweep-point",
			Src: -1, Dst: -1, Warp: -1, Val: uint64(i)})
		p.bufs[i].Replay(dst)
	}
	return nil
}

func (p *points) mergedHeat() *obs.Heat {
	out := flags.NewHeat()
	for i := 0; i < len(p.heats); i++ {
		out.Merge(p.heats[i])
	}
	return out
}

func sweepWarps(r *experiments.Runner, b workload.Benchmark) error {
	fmt.Printf("warps-per-SM sweep on %s (RCC, SC)\n", b.Name)
	fmt.Printf("%8s %10s %8s %16s\n", "warps", "cycles", "IPC", "SC stall cycles")
	rows, err := r.WarpSweep(b, []int{4, 8, 16, 32, 48})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%8d %10d %8.2f %16d\n", row.Warps, row.Cycles, row.IPC, row.StallCycles)
	}
	return nil
}

func sweepTCLease(r *experiments.Runner, b workload.Benchmark) error {
	fmt.Printf("TC-Strong lease sweep on %s\n", b.Name)
	fmt.Printf("%8s %10s %16s %12s\n", "lease", "cycles", "store stall cyc", "L1 hit rate")
	rows, err := r.TCLeaseSweep(b, []uint64{100, 200, 400, 800, 1600})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%8d %10d %16d %11.1f%%\n", row.Lease, row.Cycles, row.StoreStalls, 100*row.L1HitRate)
	}
	return nil
}

func sweepTSBits(r *experiments.Runner, b workload.Benchmark) error {
	fmt.Printf("RCC timestamp-width sweep on %s\n", b.Name)
	fmt.Printf("%8s %10s %10s %14s\n", "bits", "cycles", "rollovers", "stall cycles")
	rows, err := r.TSBitsSweep(b, []uint{14, 16, 18, 20, 24, 32})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%8d %10d %10d %14d\n", row.Bits, row.Cycles, row.Rollovers, row.Stall)
	}
	return nil
}

func sweepSched(r *experiments.Runner, b workload.Benchmark) error {
	fmt.Printf("warp-scheduler sweep on %s\n", b.Name)
	fmt.Printf("%6s %8s %10s %8s %16s\n", "sched", "proto", "cycles", "IPC", "SC stall cycles")
	rows, err := r.SchedulerSweep(b, []config.Protocol{config.MESI, config.TCS, config.RCC})
	if err != nil {
		return err
	}
	for _, row := range rows {
		fmt.Printf("%6v %8v %10d %8.2f %16d\n", row.Scheduler, row.Protocol, row.Cycles, row.IPC, row.StallCycles)
	}
	return nil
}
