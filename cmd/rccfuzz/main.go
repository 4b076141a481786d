// Command rccfuzz differentially fuzzes the coherence protocols for
// sequential-consistency violations. Each seed becomes a random
// concurrent program that runs under every SC-claiming protocol with
// jittered NoC timing and the trace invariant checker armed; observed
// load outcomes and final memory are validated against an exact
// enumeration of the program's SC executions. The first failure is
// delta-debugged to a minimal program and written as a replayable JSON
// repro.
//
// Usage:
//
//	rccfuzz -seeds 1000 -j 8                 # fuzz seeds 0..999
//	rccfuzz -repro rccfuzz-repro.json        # replay a saved failure
//	rccfuzz -seeds 200 -weaken-lease 100000  # harness self-test: seeded bug
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"

	"rccsim/internal/check"
	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/obs"
)

func main() {
	var (
		seeds = flag.Int("seeds", 200, "number of fuzzing seeds to run")
		start = flag.Uint64("start", 0, "first seed")
		// GOMAXPROCS(0) respects the runtime's actual parallelism budget
		// (container CPU quotas, explicit GOMAXPROCS), where NumCPU would
		// oversubscribe a quota-limited box with idle workers.
		workers   = flag.Int("j", runtime.GOMAXPROCS(0), "parallel workers")
		runs      = flag.Int("runs", 3, "timing-perturbed runs per protocol per seed")
		protocols = flag.String("protocols", "MESI,TCS,RCC,SC-IDEAL", "comma-separated protocols to cross-check")
		jitter    = flag.Uint64("jitter", 32, "max NoC latency jitter in cycles (0 disables)")
		maxCycles = flag.Uint64("max-cycles", 5_000_000, "per-run cycle cap")
		reproPath = flag.String("repro", "", "replay this repro JSON instead of fuzzing")
		outPath   = flag.String("out", "rccfuzz-repro.json", "where to write the shrunk repro on failure")
		verbose   = flag.Bool("v", false, "log every seed")
		weaken    = flag.Uint64("weaken-lease", 0, "self-test: extend every L1 lease check by N cycles (plants an SC bug)")
		serve     = flag.String("serve", "", "serve live introspection (/metrics, /healthz, /debug/pprof) on this address, e.g. :8080")
	)
	flag.Parse()

	var fm fuzzMetrics
	if *serve != "" {
		reg := obs.NewRegistry()
		fm = newFuzzMetrics(reg)
		addr, err := obs.Serve(*serve, obs.Mounts{Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccfuzz: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rccfuzz: serving introspection on http://%s\n", addr)
	}

	if *weaken > 0 {
		restore := core.WeakenLeaseCheckForTest(*weaken)
		defer restore()
		fmt.Fprintf(os.Stderr, "rccfuzz: L1 lease checks weakened by %d cycles (self-test mode)\n", *weaken)
	}

	opts := check.DefaultOptions()
	opts.RunSeeds = *runs
	opts.Jitter = *jitter
	opts.MaxCycles = *maxCycles
	opts.Protocols = nil
	for _, name := range strings.Split(*protocols, ",") {
		p, err := config.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rccfuzz: %v\n", err)
			os.Exit(2)
		}
		if !p.SupportsSC() || p.Consistency() != config.SC {
			fmt.Fprintf(os.Stderr, "rccfuzz: %s does not claim sequential consistency; the SC oracles do not apply\n", p)
			os.Exit(2)
		}
		opts.Protocols = append(opts.Protocols, p)
	}

	if *reproPath != "" {
		os.Exit(replay(*reproPath))
	}
	os.Exit(fuzz(*seeds, *start, *workers, *verbose, *outPath, opts, fm))
}

// fuzzMetrics publishes fuzzing progress into an obs.Registry. The zero
// value is inert: every Series method is nil-safe, so the fuzz loop can
// update unconditionally whether or not -serve is set.
type fuzzMetrics struct {
	seeds    *obs.Series
	done     *obs.Series
	skipped  *obs.Series
	failures *obs.Series
	shrink   *obs.Series
}

func newFuzzMetrics(reg *obs.Registry) fuzzMetrics {
	return fuzzMetrics{
		seeds:    reg.Register("rccsim_fuzz_seeds", "Seeds this invocation will fuzz", obs.Gauge),
		done:     reg.Register("rccsim_fuzz_seeds_done", "Seeds fully checked", obs.Counter),
		skipped:  reg.Register("rccsim_fuzz_seeds_skipped", "Seeds skipped at enumeration limits", obs.Counter),
		failures: reg.Register("rccsim_fuzz_failures_found", "SC violations observed before shrinking", obs.Counter),
		shrink:   reg.Register("rccsim_fuzz_shrink_in_progress", "1 while delta-debugging a failure", obs.Gauge),
	}
}

func replay(path string) int {
	r, err := check.ReadRepro(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccfuzz: %v\n", err)
		return 2
	}
	threads, ops := r.Prog.Shape()
	fmt.Printf("replaying %s: seed %d, %d threads, %d ops\n%s", path, r.Seed, threads, ops, r.Prog)
	fail, err := r.Replay()
	if err != nil {
		fmt.Fprintf(os.Stderr, "rccfuzz: replay could not run: %v\n", err)
		return 2
	}
	if fail == nil {
		fmt.Println("repro did NOT reproduce: all runs sequentially consistent")
		return 0
	}
	fmt.Printf("reproduced: %v\n", fail)
	return 1
}

type hit struct {
	seed uint64
	prog *check.Prog
	fail *check.Failure
}

// fuzz runs seeds [start, start+n) across a worker pool. Workers race to
// the first failure; the lowest failing seed wins so runs are reproducible
// regardless of scheduling, then that failure is shrunk and written out.
func fuzz(n int, start uint64, workers int, verbose bool, outPath string, opts check.Options, fm fuzzMetrics) int {
	if workers < 1 {
		workers = 1
	}
	fm.seeds.Set(uint64(n))
	var (
		next    atomic.Uint64 // index into the seed range
		skipped atomic.Uint64 // enumeration-limit skips
		mu      sync.Mutex
		first   *hit
		wg      sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= uint64(n) {
					return
				}
				seed := start + i
				mu.Lock()
				stop := first != nil && first.seed < seed
				mu.Unlock()
				if stop {
					return
				}
				prog, fail, err := check.FuzzSeed(seed, opts)
				fm.done.Add(1)
				switch {
				case err != nil:
					skipped.Add(1)
					fm.skipped.Add(1)
					if verbose {
						fmt.Fprintf(os.Stderr, "seed %d: skipped (%v)\n", seed, err)
					}
				case fail != nil:
					fm.failures.Add(1)
					mu.Lock()
					if first == nil || seed < first.seed {
						first = &hit{seed: seed, prog: prog, fail: fail}
					}
					mu.Unlock()
				default:
					if verbose {
						fmt.Fprintf(os.Stderr, "seed %d: ok\n", seed)
					}
				}
			}
		}()
	}
	wg.Wait()

	if first == nil {
		fmt.Printf("rccfuzz: %d seeds clean (%d skipped at enumeration limits) across %s\n",
			n, skipped.Load(), protoNames(opts))
		return 0
	}

	fmt.Printf("rccfuzz: seed %d FAILED: %v\n", first.seed, first.fail)
	threads, ops := first.prog.Shape()
	fmt.Printf("shrinking from %d threads / %d ops...\n", threads, ops)
	fm.shrink.Set(1)
	small, fail := check.Shrink(first.prog, first.fail, opts)
	fm.shrink.Set(0)
	threads, ops = small.Shape()
	fmt.Printf("minimal repro (%d threads, %d ops):\n%s", threads, ops, small)
	fmt.Printf("failure: %v\n", fail)
	repro := check.NewRepro(first.seed, small, fail, opts)
	if err := check.WriteRepro(outPath, repro); err != nil {
		fmt.Fprintf(os.Stderr, "rccfuzz: writing repro: %v\n", err)
	} else {
		fmt.Printf("repro written to %s (replay with: rccfuzz -repro %s)\n", outPath, outPath)
	}
	return 1
}

func protoNames(opts check.Options) string {
	names := make([]string, len(opts.Protocols))
	for i, p := range opts.Protocols {
		names[i] = p.String()
	}
	return strings.Join(names, ",")
}
