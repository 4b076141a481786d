// rccdiff — hierarchical perf-regression attribution over the run ledger.
//
// Given any two ledger entries (or entry JSON files), rccdiff decomposes
// their delta top-down: every benchmark both share, gated on its median
// ns/op with a noise-aware median ± MAD verdict, a largest-mover table
// over the cycle-account categories (largest-remainder percentages that
// sum to exactly 100.0 and reconcile against the closed-sum invariant),
// per-run drill-downs, and span/heat movers. Cross-host pairs are flagged
// and their wall-clock comparisons skipped; simulated-cycle comparisons
// are host-independent and always checked.
//
//	rccdiff [flags] BASE CUR        diff two refs
//	rccdiff -ci [BASE CUR]          CI gate (exit 1 on regression); defaults to @-2 @-1
//	rccdiff -record -label L        append an entry from go-bench stdin
//	rccdiff -plant REF              append a synthetic regression (self-test)
//	rccdiff -list                   list the ledger index
//
// A ref is @N (0-based index), @-N (from the end, @-1 latest), a content-ID
// hex prefix (>= 4 chars), or a path to an entry JSON file.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"rccsim/internal/ledger"
	"rccsim/internal/stats"
)

// marshalDiff renders the diff as indented JSON with a trailing newline.
func marshalDiff(d *ledger.Diff) ([]byte, error) {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func main() {
	var (
		dir     = flag.String("dir", "ledger", "ledger directory")
		ci      = flag.Bool("ci", false, "CI gate mode: diff BASE CUR (default @-2 @-1), exit 1 on regression")
		record  = flag.Bool("record", false, "append an entry parsed from `go test -bench` output on stdin")
		doList  = flag.Bool("list", false, "list the ledger index")
		plant   = flag.String("plant", "", "append a planted regression derived from the given ref (self-test)")
		cat     = flag.String("cat", "mshr-full", "with -plant: cycle-account category to inflate")
		frac    = flag.Float64("frac", 0.25, "with -plant: fraction of total cycles to plant")
		label   = flag.String("label", "", "with -record: entry label (required)")
		jsonOut = flag.Bool("json", false, "emit the diff as JSON instead of text")
		tol     = flag.Float64("tol", 10, "per-benchmark ns/op regression tolerance (percent)")
	)
	flag.Parse()

	if err := run(opts{
		dir: *dir, ci: *ci, record: *record, list: *doList,
		plant: *plant, cat: *cat, frac: *frac,
		label: *label, jsonOut: *jsonOut,
		diffOpt: ledger.Options{TolerancePct: *tol},
		args:    flag.Args(),
	}); err != nil {
		if err == errRegressed {
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "rccdiff:", err)
		os.Exit(2)
	}
}

var errRegressed = fmt.Errorf("regression detected")

type opts struct {
	dir     string
	ci      bool
	record  bool
	list    bool
	plant   string
	cat     string
	frac    float64
	label   string
	jsonOut bool
	diffOpt ledger.Options
	args    []string
}

func run(o opts) error {
	switch {
	case o.list:
		return runList(o)
	case o.record:
		return runRecord(o)
	case o.plant != "":
		return runPlant(o)
	}
	// Diff mode (plain or -ci).
	base, cur := "@-2", "@-1"
	switch len(o.args) {
	case 0:
		if !o.ci {
			return fmt.Errorf("need BASE and CUR refs (or -ci for the @-2 @-1 default); see -h")
		}
	case 2:
		base, cur = o.args[0], o.args[1]
	default:
		return fmt.Errorf("expected exactly 2 refs, got %d", len(o.args))
	}
	return runDiff(o, base, cur)
}

func openLedger(o opts) (*ledger.Ledger, error) { return ledger.Open(o.dir) }

// resolve maps a ref to (id, entry): a readable entry JSON file wins
// (identified by its content hash), otherwise the ledger resolves it.
func resolve(l *ledger.Ledger, ref string) (string, *ledger.Entry, error) {
	if b, err := os.ReadFile(ref); err == nil {
		e, err := ledger.DecodeEntry(b)
		if err != nil {
			return "", nil, err
		}
		id, err := e.ID()
		return id, e, err
	}
	return l.Resolve(ref)
}

func runList(o opts) error {
	l, err := openLedger(o)
	if err != nil {
		return err
	}
	idx, err := l.Index()
	if err != nil {
		return err
	}
	if len(idx) == 0 {
		fmt.Println("(empty ledger)")
		return nil
	}
	for _, line := range idx {
		fmt.Printf("@%-4d %s  %-8s %s\n", line.Seq, ledger.ShortID(line.ID), line.Kind, line.Label)
	}
	return nil
}

func runRecord(o opts) error {
	if o.label == "" {
		return fmt.Errorf("-record requires -label")
	}
	recs, err := ledger.ParseBenchOutput(os.Stdin)
	if err != nil {
		return err
	}
	l, err := openLedger(o)
	if err != nil {
		return err
	}
	e := &ledger.Entry{
		Kind:       ledger.KindBench,
		Label:      o.label,
		Time:       ledger.Now(),
		Host:       ledger.Fingerprint("."),
		Benchmarks: recs,
	}
	id, err := l.Append(e)
	if err != nil {
		return err
	}
	samples := 0
	for _, r := range recs {
		samples += len(r.Samples)
	}
	fmt.Printf("recorded %s (%d benchmarks, %d samples) as %s\n",
		o.label, len(recs), samples, ledger.ShortID(id))
	return nil
}

func runPlant(o opts) error {
	l, err := openLedger(o)
	if err != nil {
		return err
	}
	_, e, err := resolve(l, o.plant)
	if err != nil {
		return err
	}
	c, err := catByName(o.cat)
	if err != nil {
		return err
	}
	p, err := ledger.Plant(e, c, o.frac)
	if err != nil {
		return err
	}
	id, err := l.Append(p)
	if err != nil {
		return err
	}
	fmt.Printf("planted %s (+%.0f%% into %s) as %s\n", o.cat, o.frac*100, p.Label, ledger.ShortID(id))
	return nil
}

func catByName(name string) (stats.CycleCat, error) {
	var names []string
	for _, c := range stats.CycleCats() {
		if c.String() == name {
			return c, nil
		}
		names = append(names, c.String())
	}
	return 0, fmt.Errorf("unknown cycle category %q (one of: %s)", name, strings.Join(names, ", "))
}

func runDiff(o opts, baseRef, curRef string) error {
	l, err := openLedger(o)
	if err != nil {
		return err
	}
	baseID, base, err := resolve(l, baseRef)
	if err != nil {
		return err
	}
	curID, cur, err := resolve(l, curRef)
	if err != nil {
		return err
	}
	d := ledger.Compute(baseID, base, curID, cur, o.diffOpt)
	if o.jsonOut {
		b, err := marshalDiff(d)
		if err != nil {
			return err
		}
		os.Stdout.Write(b)
	} else {
		fmt.Print(d.Format())
	}
	if o.ci && !d.Ok() {
		return errRegressed
	}
	return nil
}
