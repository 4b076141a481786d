// Command rccbench regenerates the tables and figures of the paper's
// evaluation section as text.
//
// Usage:
//
//	rccbench [-scale f] [-seed n] [-small] [-j N] [-progress]
//	         [-ledger dir] [-serve addr]
//	         [-trace file [-trace-format jsonl|perfetto] [-metrics-interval N]]
//	         [-hotspots N] [-stacks file]
//	         [-spans N [-spans-out file] [-spans-folded file]]
//	         [-cpuprofile file] [-memprofile file] <experiment>...
//
// Experiments: fig1 fig6 fig7 fig8 fig9 fig10 table1 table3 table4 table5
// all, plus "stats <bench> <protocol>" for a full single-run report.
// Without arguments it prints the experiment list. The flags shared with
// rccsweep (internal/cli) drive one experiments.Runner; -trace (with
// -trace-format and -metrics-interval), -hotspots, -stacks and -spans
// (with -spans-out and -spans-folded) apply to the single-run "stats"
// experiment only, and any other experiment rejects them with exit 2.
// So does "stats" when -spans-out or -spans-folded is given without
// -spans.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"rccsim/internal/cli"
	"rccsim/internal/config"
	"rccsim/internal/experiments"
	"rccsim/internal/ledger"
	"rccsim/internal/obs/span"
	"rccsim/internal/report"
	"rccsim/internal/sim"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

var (
	scale     = flag.Float64("scale", 1.0, "workload scale factor (trace length multiplier)")
	seed      = flag.Uint64("seed", 1, "workload generation seed")
	small     = flag.Bool("small", false, "use the reduced test machine instead of Table III")
	stacksOut = flag.String("stacks", "", "write folded cycle stacks of a 'stats' run to this file (flamegraph.pl input)")

	spansN      = flag.Int("spans", 0, "record a causal span for every Nth memory op of a 'stats' run (0 = off)")
	spansOut    = flag.String("spans-out", "", "write the span summary (waterfalls, critical path, slowest ops) as JSON to this file")
	spansFolded = flag.String("spans-folded", "", "write sampled spans as folded segment stacks to this file (flamegraph.pl input)")

	flags cli.Flags
)

// statsOnly lists the flags only the "stats" experiment reads.
var statsOnly = []string{"trace", "trace-format", "metrics-interval", "hotspots", "stacks", "spans", "spans-out", "spans-folded"}

func main() {
	flags.Register(flag.CommandLine)
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	os.Exit(realMain(flag.Args(), set))
}

// realMain runs the experiments in args; set holds the names of the flags
// given on the command line.
func realMain(args []string, set map[string]bool) int {
	if len(args) == 0 {
		fmt.Println("experiments: fig1 fig6 fig7 fig8 fig9 fig10 table1 table3 table4 table5 all")
		fmt.Println("             stats <bench> <protocol>   (full single-run report)")
		return 0
	}
	if err := checkFlags(args[0] == "stats", set); err != nil {
		fmt.Fprintf(os.Stderr, "rccbench: %v\n", err)
		return 2
	}
	base := config.Default()
	if *small {
		base = config.Small()
	}
	base.Scale = *scale
	base.Seed = *seed
	spans := span.NewRecorder(*spansN)
	s, err := flags.Start("rccbench", "rccbench", base, spans)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccbench: %v\n", err)
		return 1
	}
	defer s.Close()

	if args[0] == "stats" {
		if err := statsReport(s, spans, args[1:]); err != nil {
			fmt.Fprintf(os.Stderr, "rccbench: %v\n", err)
			return 1
		}
		return 0
	}
	for _, a := range args {
		if a == "all" {
			args = []string{"table1", "table3", "table4", "table5", "fig1", "fig6", "fig7", "fig8", "fig9", "fig10"}
			break
		}
	}
	for _, a := range args {
		if err := run(s.Runner, a); err != nil {
			fmt.Fprintf(os.Stderr, "rccbench: %s: %v\n", a, err)
			return 1
		}
	}
	if err := s.Record(ledger.KindRun, "rccbench "+strings.Join(args, " ")); err != nil {
		fmt.Fprintf(os.Stderr, "rccbench: %v\n", err)
		return 1
	}
	return 0
}

// checkFlags rejects, before anything is simulated, flags the run would
// otherwise ignore or honour only after simulating: stats-only flags
// outside "stats", and span exports without span recording.
func checkFlags(stats bool, set map[string]bool) error {
	if !stats {
		for _, name := range statsOnly {
			if set[name] {
				return fmt.Errorf("-%s applies to the stats experiment only", name)
			}
		}
	}
	if *spansN <= 0 && (*spansOut != "" || *spansFolded != "") {
		return errors.New("-spans-out/-spans-folded require -spans N")
	}
	return nil
}

func run(r *experiments.Runner, name string) error {
	switch name {
	case "fig1":
		return fig1(r)
	case "fig6":
		return fig6(r)
	case "fig7":
		return fig7(r)
	case "fig8":
		return fig8(r)
	case "fig9":
		return fig9(r)
	case "fig10":
		return fig10(r)
	case "table1":
		table1()
	case "table3":
		table3(r.Base)
	case "table4":
		table4()
	case "table5":
		table5()
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}

func newTab() *tabwriter.Writer {
	return tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n", title)
}

func fig1(r *experiments.Runner) error {
	rows, err := r.Fig1()
	if err != nil {
		return err
	}
	header("Fig 1: SC overheads on the MESI write-through baseline")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\t(a) memops stalled\t(b) stall cyc from stores\t(c) load lat\t(c) store lat\tload p95\tstore p95\t(d) SC-IDEAL speedup")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\t%.1f%%\t%.0f\t%.0f\t%d\t%d\t%.2fx\n",
			row.Bench, group(row.Inter), 100*row.StallFrac, 100*row.StoreBlame,
			row.LoadLat, row.StoreLat, row.LoadP95, row.StoreP95, row.IdealSpeedup)
	}
	w.Flush()
	var interIdeal []float64
	for _, row := range rows {
		if row.Inter {
			interIdeal = append(interIdeal, row.IdealSpeedup)
		}
	}
	fmt.Printf("gmean SC-IDEAL speedup (inter-workgroup): %.2fx (paper: ~1.6x)\n",
		experiments.GMean(interIdeal))
	return nil
}

func fig6(r *experiments.Runner) error {
	rows, err := r.Fig6()
	if err != nil {
		return err
	}
	header("Fig 6: L1 lease expiry (left) and renewability (right) under RCC")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tloads V-but-expired\texpired refetches renewable")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t%.1f%%\t%.1f%%\n",
			row.Bench, group(row.Inter), 100*row.ExpiredFrac, 100*row.RenewableFrac)
	}
	w.Flush()
	return nil
}

func fig7(r *experiments.Runner) error {
	rows, err := r.Fig7()
	if err != nil {
		return err
	}
	header("Fig 7: renewal traffic ablation (-R/+R) and predictor ablation (-P/+P)")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tflits -R\tflits +R\ttraffic ratio\texpired -P\texpired +P")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%.2f\t%.1f%%\t%.1f%%\n",
			row.Bench, group(row.Inter), row.FlitsNoRenew, row.FlitsRenew,
			float64(row.FlitsRenew)/float64(row.FlitsNoRenew),
			100*row.ExpiredNoPred, 100*row.ExpiredPred)
	}
	w.Flush()
	return nil
}

func fig8(r *experiments.Runner) error {
	rows, err := r.Fig8()
	if err != nil {
		return err
	}
	header("Fig 8: SC stall cycles (top) and stall resolve latency (bottom), normalized to MESI")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tstallcyc MESI\tTCS\tRCC\tlatency MESI\tTCS\tRCC")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t1.00\t%s\t%s\t1.00\t%s\t%s\n",
			row.Bench, group(row.Inter),
			experiments.Fmt(row.StallCycles[config.TCS]), experiments.Fmt(row.StallCycles[config.RCC]),
			experiments.Fmt(row.StallLatency[config.TCS]), experiments.Fmt(row.StallLatency[config.RCC]))
	}
	w.Flush()
	return nil
}

func fig9(r *experiments.Runner) error {
	rows, err := r.Fig9()
	if err != nil {
		return err
	}
	header("Fig 9a: speedup vs MESI")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tMESI\tTCS\tTCW\tRCC")
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t1.00\t%.2f\t%.2f\t%.2f\n",
			row.Bench, group(row.Inter),
			row.Speedup[config.TCS], row.Speedup[config.TCW], row.Speedup[config.RCC])
	}
	w.Flush()
	inter, intra := experiments.SpeedupGMeans(rows)
	fmt.Printf("gmean inter-workgroup: TCS %.2f  TCW %.2f  RCC %.2f (paper: RCC 1.76x MESI, 1.29x TCS, within 7%% of TCW)\n",
		inter[config.TCS], inter[config.TCW], inter[config.RCC])
	fmt.Printf("gmean intra-workgroup: TCS %.2f  TCW %.2f  RCC %.2f (paper: RCC 1.10x MESI, within 3%% of TCS/TCW)\n",
		intra[config.TCS], intra[config.TCW], intra[config.RCC])

	header("Fig 9b: interconnect energy by component, normalized to MESI total")
	w = newTab()
	fmt.Fprintln(w, "bench\tproto\tbuffer\tswitch\tlink\tstatic\ttotal")
	for _, row := range rows {
		for _, p := range experiments.Fig9Protocols {
			e := row.Energy[p]
			fmt.Fprintf(w, "%s\t%v\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				row.Bench, p, e.Buffer, e.Switch, e.Link, e.Static, e.Total)
		}
	}
	w.Flush()

	header("Fig 9c: interconnect traffic by message class, normalized to MESI total")
	w = newTab()
	fmt.Fprintln(w, "bench\tproto\treq\tst-data\tld-data\tack\trenew\tinv\ttotal")
	for _, row := range rows {
		for _, p := range experiments.Fig9Protocols {
			t := row.Traffic[p]
			fmt.Fprintf(w, "%s\t%v\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				row.Bench, p, t.Request, t.StoreData, t.LoadData, t.Ack, t.Renew, t.Inv, t.Total)
		}
	}
	w.Flush()
	return nil
}

func fig10(r *experiments.Runner) error {
	rows, err := r.Fig10()
	if err != nil {
		return err
	}
	header("Fig 10: weak ordering vs RCC-SC")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tRCC-SC\tRCC-WO\tTCW")
	var wos, tcws []float64
	for _, row := range rows {
		fmt.Fprintf(w, "%s\t%s\t1.00\t%.2f\t%.2f\n",
			row.Bench, group(row.Inter),
			row.Speedup[config.RCCWO], row.Speedup[config.TCW])
		wos = append(wos, row.Speedup[config.RCCWO])
		tcws = append(tcws, row.Speedup[config.TCW])
	}
	w.Flush()
	fmt.Printf("gmean: RCC-WO %.2f  TCW %.2f over RCC-SC (paper: both ~1.07x)\n",
		experiments.GMean(wos), experiments.GMean(tcws))
	return nil
}

func table1() {
	header("Table I: SC support and stall-free stores")
	w := newTab()
	fmt.Fprintln(w, "\tMESI\tTCS\tTCW\tRCC")
	ps := []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC}
	fmt.Fprint(w, "SC support?")
	for _, p := range ps {
		fmt.Fprintf(w, "\t%s", yesno(p.SupportsSC()))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "stall-free store permissions?")
	for _, p := range ps {
		fmt.Fprintf(w, "\t%s", yesno(p.StallFreeStores()))
	}
	fmt.Fprintln(w)
	w.Flush()
}

func table3(cfg config.Config) {
	header("Table III: simulated machine")
	w := newTab()
	fmt.Fprintf(w, "GPU cores\t%d SMs, %d warps x %d threads\n", cfg.NumSMs, cfg.WarpsPerSM, cfg.WarpWidth)
	fmt.Fprintf(w, "per-core L1\t%d KB, %d-way, %d B lines, %d MSHRs (write-through)\n",
		cfg.L1Sets*cfg.L1Ways*cfg.LineBytes/1024, cfg.L1Ways, cfg.LineBytes, cfg.L1MSHRs)
	fmt.Fprintf(w, "total L2\t%d KB = %d partitions x %d KB, %d-way (write-back)\n",
		cfg.L2Partitions*cfg.L2SetsPerPart*cfg.L2Ways*cfg.LineBytes/1024,
		cfg.L2Partitions, cfg.L2SetsPerPart*cfg.L2Ways*cfg.LineBytes/1024, cfg.L2Ways)
	fmt.Fprintf(w, "interconnect\tone xbar/direction, %d-byte flits, %d flits/cycle/port, %d-cycle pipeline\n",
		cfg.FlitBytes, cfg.PortFlitsPerCycle, cfg.NoCPipeLatency)
	fmt.Fprintf(w, "DRAM\t%d banks/partition, tCL=%d tRP=%d tRCD=%d, %d-cycle bus/line\n",
		cfg.DRAMBanksPerPart, cfg.DRAMtCL, cfg.DRAMtRP, cfg.DRAMtRCD, cfg.DRAMBusCycles)
	fmt.Fprintf(w, "TC lease\t%d cycles\n", cfg.TCLease)
	fmt.Fprintf(w, "RCC leases\tpredicted %d..%d, rollover at 2^32\n", cfg.RCCMinLease, cfg.RCCMaxLease)
	w.Flush()
}

func table4() {
	header("Table IV: benchmarks")
	w := newTab()
	fmt.Fprintln(w, "bench\tgroup\tdescription")
	for _, b := range workload.All() {
		fmt.Fprintf(w, "%s\t%s\t%s\n", b.Name, group(b.Inter), b.Desc)
	}
	w.Flush()
}

func table5() {
	header("Table V: protocol complexity (paper counts vs this implementation)")
	w := newTab()
	fmt.Fprintln(w, "protocol\tpaper L1 states\tpaper L1 trans\tpaper L2 states\tpaper L2 trans\timpl L1 states\timpl L2 states")
	for _, row := range experiments.TableV() {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n",
			row.Protocol, row.PaperL1States, row.PaperL1Trans,
			row.PaperL2States, row.PaperL2Trans, row.ImplL1States, row.ImplL2States)
	}
	w.Flush()
}

func group(inter bool) string {
	if inter {
		return "inter"
	}
	return "intra"
}

func yesno(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// statsReport runs one benchmark under one protocol and prints the full
// per-run report, plus the optional -hotspots table, -stacks folded
// cycle-account output, and the -spans causal-span section with its
// -spans-out / -spans-folded exports. -trace captures the run's event
// stream.
func statsReport(s *cli.Session, spans *span.Recorder, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: rccbench stats <bench> <protocol>")
	}
	b, ok := workload.ByName(strings.ToUpper(args[0]))
	if !ok {
		return fmt.Errorf("unknown benchmark %q", args[0])
	}
	var proto config.Protocol
	found := false
	for _, p := range []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal} {
		if strings.EqualFold(p.String(), args[1]) {
			proto, found = p, true
		}
	}
	if !found {
		return fmt.Errorf("unknown protocol %q", args[1])
	}
	cfg := s.Runner.Base
	cfg.Protocol = proto
	dst, traceFile, err := flags.OpenTrace()
	if err != nil {
		return err
	}
	o := flags.Observers(dst)
	o.Sp = spans
	label := fmt.Sprintf("%s/%v", b.Name, proto)
	s.Tracker.SetTotal(1)
	s.Tracker.Begin(label)
	res, err := sim.RunBenchmark(cfg, b, o)
	s.Tracker.Done(label, res.Stats)
	if perf, ok := dst.(*trace.PerfettoSink); ok && spans != nil {
		perf.WriteSpanFlows(spans.Flows())
	}
	if cerr := o.Tr.Close(); err == nil {
		err = cerr
	}
	if traceFile != nil {
		if cerr := traceFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	header(fmt.Sprintf("%s under %v", b.Name, proto))
	fmt.Print(report.Format(cfg, res.Stats))
	fmt.Print(report.FormatSpans(cfg, spans, 5))
	if err := writeSpanFiles(cfg, spans); err != nil {
		return err
	}
	if o.Heat != nil {
		header(fmt.Sprintf("top %d contended lines", flags.Hotspots))
		o.Heat.WriteTable(os.Stdout, flags.Hotspots)
	}
	if *stacksOut != "" {
		f, err := os.Create(*stacksOut)
		if err != nil {
			return err
		}
		werr := report.CycleStacks(f, cfg, res.Stats)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "rccbench: wrote folded cycle stacks to %s\n", *stacksOut)
	}
	if s.Ledger == nil {
		return nil
	}
	rec := ledger.RunRec{Label: label}
	rec.SetStats(res.Stats)
	if spans != nil {
		rec.Spans = ledger.SpanPercentiles(spans.Summarize(0))
	}
	heatTop := flags.Hotspots
	if heatTop == 0 {
		heatTop = 16
	}
	rec.Heat = ledger.TopHeatLines(o.Heat, heatTop)
	return s.Append(ledger.KindRun, "rccbench stats "+label, []ledger.RunRec{rec})
}

// writeSpanFiles dumps the -spans-out JSON summary and -spans-folded
// segment stacks after a 'stats' run. Both are no-ops when span recording
// is off (checkFlags has already rejected asking for them then: the dumps
// would be empty and silently useless).
func writeSpanFiles(cfg config.Config, spans *span.Recorder) error {
	if spans == nil {
		return nil
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			return err
		}
		werr := spans.WriteJSON(f, 10)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "rccbench: wrote span summary to %s\n", *spansOut)
	}
	if *spansFolded != "" {
		f, err := os.Create(*spansFolded)
		if err != nil {
			return err
		}
		werr := spans.WriteFolded(f, cfg.Protocol.String())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(os.Stderr, "rccbench: wrote folded span stacks to %s\n", *spansFolded)
	}
	return nil
}
