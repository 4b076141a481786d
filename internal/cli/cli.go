// Package cli is the harness rccbench and rccsweep share: the flags both
// declare, and the wiring from those flags onto one experiments.Runner —
// CPU and heap profiles, the introspection server with its run tracker,
// the run ledger, and the -trace output file.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"rccsim/internal/config"
	"rccsim/internal/experiments"
	"rccsim/internal/ledger"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
)

// Flags holds the values of the shared flags.
type Flags struct {
	Jobs            int
	Progress        bool
	Trace           string
	TraceFormat     string
	MetricsInterval uint64
	Ledger          string
	Serve           string
	Hotspots        int
	CPUProfile      string
	MemProfile      string
}

// Register declares the shared flags on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	fs.IntVar(&f.Jobs, "j", 0, "concurrent simulations (0 = one per CPU, 1 = sequential)")
	fs.BoolVar(&f.Progress, "progress", false, "report progress (points done/total, ETA) on stderr")
	fs.StringVar(&f.Trace, "trace", "", "write the event trace to this file")
	fs.StringVar(&f.TraceFormat, "trace-format", "jsonl", "event trace format: jsonl or perfetto")
	fs.Uint64Var(&f.MetricsInterval, "metrics-interval", 0, "emit stats deltas into the trace every N cycles (0 = off)")
	fs.StringVar(&f.Ledger, "ledger", "", "append every finished simulation point (full wire stats) to the run ledger in this directory")
	fs.StringVar(&f.Serve, "serve", "", "serve live introspection (/metrics, /runs, /ledger, /healthz, /debug/pprof) on this address, e.g. :8080")
	fs.IntVar(&f.Hotspots, "hotspots", 0, "print the top-N contended cache lines (0 = off)")
	fs.StringVar(&f.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// OpenTrace creates the -trace file and the -trace-format sink writing
// to it. The format is resolved first, so an unknown one leaves an
// existing file untouched. With -trace unset it returns a nil sink and
// file (and an error if -metrics-interval asks for trace rows). The
// caller closes the sink, then the file.
func (f *Flags) OpenTrace() (trace.Sink, *os.File, error) {
	if f.Trace == "" {
		if f.MetricsInterval > 0 {
			return nil, nil, errors.New("-metrics-interval requires -trace")
		}
		return nil, nil, nil
	}
	newSink, err := trace.SinkFor(f.TraceFormat)
	if err != nil {
		return nil, nil, fmt.Errorf("-trace-format: %w", err)
	}
	file, err := os.Create(f.Trace)
	if err != nil {
		return nil, nil, err
	}
	return newSink(file), file, nil
}

// Observers returns the observers the shared flags ask for. With dst
// non-nil it holds a bus over dst that also writes a stats-delta row into
// dst every -metrics-interval cycles; closing the bus closes dst. With
// -hotspots on it holds the contention sketch behind the table, tracking
// four times the lines shown (at least 64), so the displayed tail is
// trustworthy.
func (f *Flags) Observers(dst trace.Sink) trace.Observers {
	var o trace.Observers
	switch {
	case dst == nil:
	case f.MetricsInterval == 0:
		o.Tr = trace.NewBus(dst)
	default:
		o.Tr = trace.NewBus(trace.NewIntervalSink(dst, f.MetricsInterval), dst)
	}
	if f.Hotspots > 0 {
		o.Heat = obs.NewHeat(max(4*f.Hotspots, 64))
	}
	return o
}

// Session is one CLI invocation's run context: the Runner with every hook
// the shared flags ask for attached.
type Session struct {
	Runner  *experiments.Runner
	Tracker *obs.Tracker   // nil without -serve
	Ledger  *ledger.Ledger // nil without -ledger

	tool     string
	coll     *ledger.Collector
	stopProf func()
}

// Start starts the -cpuprofile capture and builds the Runner over base
// with -j workers. Onto its hooks it wires the -progress line, the -serve
// server's tracker, and the -ledger collector. spans, when non-nil, is
// served on /spans. tool prefixes every stderr line but the -progress
// line, which progressLabel prefixes. On error the profiles are already
// stopped; otherwise Close the session when the run is over.
func (f *Flags) Start(tool, progressLabel string, base config.Config, spans *span.Recorder) (_ *Session, err error) {
	stopProf, err := f.startProfiles(tool)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			stopProf()
		}
	}()
	s := &Session{tool: tool, stopProf: stopProf, Runner: experiments.NewRunnerJobs(base, f.Jobs)}
	r := s.Runner
	var progress []func(done, total int, label string)
	var observe []func(label string, st *stats.Run)
	if f.Progress {
		progress = append(progress, experiments.StderrProgress(os.Stderr, progressLabel))
	}
	if f.Ledger != "" {
		if s.Ledger, err = ledger.Open(f.Ledger); err != nil {
			return nil, err
		}
		s.coll = ledger.NewCollector()
		observe = append(observe, s.coll.Observe)
	}
	if f.Serve != "" {
		tr := obs.NewTracker(obs.NewRegistry())
		addr, err := obs.Serve(f.Serve, obs.Mounts{
			Registry: tr.Registry(), Tracker: tr, Spans: spans, Ledger: ledger.Handler(s.Ledger),
		})
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "%s: serving introspection on http://%s\n", tool, addr)
		s.Tracker = tr
		r.Started = tr.Begin
		observe = append(observe, tr.Done)
		progress = append(progress, func(_, total int, _ string) { tr.SetTotal(total) })
	}
	if len(progress) > 0 {
		r.Progress = func(done, total int, label string) {
			for _, fn := range progress {
				fn(done, total, label)
			}
		}
	}
	if len(observe) > 0 {
		r.Observe = func(label string, st *stats.Run) {
			for _, fn := range observe {
				fn(label, st)
			}
		}
	}
	return s, nil
}

// Close finalizes the profiles.
func (s *Session) Close() { s.stopProf() }

// Record appends every point the Runner observed as one ledger entry; it
// does nothing without -ledger or when no point finished.
func (s *Session) Record(kind, label string) error {
	if s.coll == nil || s.coll.Len() == 0 {
		return nil
	}
	return s.Append(kind, label, s.coll.RunRecs())
}

// Append records one ledger entry (nothing without -ledger), diffs it
// against the previous latest entry when one exists, publishes the
// rccsim_regression_* gauges when serving, and prints the verdict on
// stderr: OK, REGRESSED, or NO-DATA when the two entries share no run.
func (s *Session) Append(kind, label string, runs []ledger.RunRec) error {
	if s.Ledger == nil {
		return nil
	}
	e := &ledger.Entry{
		Kind:  kind,
		Label: label,
		Time:  ledger.Now(),
		Host:  ledger.Fingerprint("."),
		Runs:  runs,
	}
	prevID, prev, perr := s.Ledger.Resolve("@-1")
	id, err := s.Ledger.Append(e)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "%s: ledger: recorded %d run(s) as %s\n", s.tool, len(runs), ledger.ShortID(id))
	if perr == nil {
		d := ledger.Compute(prevID, prev, id, e, ledger.Options{})
		if s.Tracker != nil {
			ledger.PublishRegression(s.Tracker.Registry(), d)
		}
		verdict := "OK"
		switch {
		case !d.Ok():
			verdict = "REGRESSED (run rccdiff " + ledger.ShortID(prevID)[:8] + " " + ledger.ShortID(id)[:8] + " for attribution)"
		case d.NoData():
			verdict = "NO-DATA (no runs shared with it)"
		}
		fmt.Fprintf(os.Stderr, "%s: ledger: vs %s: %s\n", s.tool, ledger.ShortID(prevID), verdict)
	}
	return nil
}

// startProfiles starts the -cpuprofile capture and returns the function
// that stops it and writes the -memprofile heap profile.
func (f *Flags) startProfiles(tool string) (stop func(), err error) {
	var cpuf *os.File
	if f.CPUProfile != "" {
		if cpuf, err = os.Create(f.CPUProfile); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuf); err != nil {
			cpuf.Close()
			return nil, err
		}
	}
	return func() {
		if cpuf != nil {
			pprof.StopCPUProfile()
			cpuf.Close()
		}
		if f.MemProfile != "" {
			mf, err := os.Create(f.MemProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
				return
			}
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
			}
			mf.Close()
		}
	}, nil
}
