// Command rcccheck exhaustively model-checks the coherence protocols on
// small configurations. Where rccfuzz samples the interleaving space,
// rcccheck enumerates it: every program of a small family (by default
// every 2-SM × 2-op × 2-line load/store program, up to SM and line
// renaming) runs under every protocol with both the per-thread issue
// order and every NoC message delay explored to exhaustion, checking the
// runtime timestamp invariants and exact SC-outcome membership at every
// terminal. A clean exit means no violation exists below this size under
// the explored timing menus — not just that none was sampled.
//
// Usage:
//
//	rcccheck                                  # exhaust the default family
//	rcccheck -protocols RCC -ops 2 -v         # one protocol, verbose
//	rcccheck -weaken-lease 1000000 -family=false -protocols RCC
//	                                          # self-test: plant the lease
//	                                          # bug, prove it is found
//	rcccheck -graph-out mc.json -dot-out mc.dot
//	                                          # export the explored state
//	                                          # graph as an artifact
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"rccsim/internal/check"
	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/obs"
)

func main() {
	var (
		protocols = flag.String("protocols", "MESI,TCS,RCC", "comma-separated protocols to exhaust")
		sms       = flag.Int("sms", 2, "SMs in the program family")
		warps     = flag.Int("warps", 1, "warps per SM in the program family")
		ops       = flag.Int("ops", 2, "operations per thread in the program family")
		lines     = flag.Int("lines", 2, "shared cache lines in the program family")
		atomics   = flag.Bool("atomics", false, "include fetch-and-add in the op alphabet")
		family    = flag.Bool("family", true, "check the enumerated program family")
		progCap   = flag.Int("progs", 0, "cap on family programs checked (0 = all)")
		delayMenu = flag.String("delay-menu", "", "comma-separated per-thread issue delays (default from check.DefaultMCOptions)")
		jitMenu   = flag.String("jitter-menu", "", "comma-separated per-message extra NoC delays (default from check.DefaultMCOptions)")
		maxCycles = flag.Uint64("max-cycles", 2_000_000, "per-run cycle cap")
		maxRuns   = flag.Int("max-runs", 1<<20, "per-exploration run cap (exceeding it reports truncation)")
		symmetry  = flag.Bool("symmetry", true, "prune delay assignments equivalent under program automorphisms")
		weaken    = flag.Uint64("weaken-lease", 0, "self-test: extend every L1 lease check by N cycles (plants an SC bug); adds the pinned witness program")
		graphOut  = flag.String("graph-out", "", "write the explored state graph (counterexample program, else the first program) as JSON")
		dotOut    = flag.String("dot-out", "", "write the same state graph as Graphviz DOT")
		serve     = flag.String("serve", "", "serve live progress (/metrics) on this address, e.g. :8080")
		verbose   = flag.Bool("v", false, "log every program")
	)
	flag.Parse()

	var mm mcMetrics
	if *serve != "" {
		reg := obs.NewRegistry()
		mm = newMCMetrics(reg)
		addr, err := obs.Serve(*serve, obs.Mounts{Registry: reg})
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcccheck: %v\n", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rcccheck: serving progress on http://%s\n", addr)
	}

	if *weaken > 0 {
		restore := core.WeakenLeaseCheckForTest(*weaken)
		defer restore()
		fmt.Fprintf(os.Stderr, "rcccheck: L1 lease checks weakened by %d cycles (self-test mode)\n", *weaken)
	}

	var protos []config.Protocol
	for _, name := range strings.Split(*protocols, ",") {
		p, err := config.ParseProtocol(strings.TrimSpace(name))
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcccheck: %v\n", err)
			os.Exit(2)
		}
		if !p.SupportsSC() || p.Consistency() != config.SC {
			fmt.Fprintf(os.Stderr, "rcccheck: %s does not claim sequential consistency; the SC oracle does not apply\n", p)
			os.Exit(2)
		}
		protos = append(protos, p)
	}

	base := check.DefaultMCOptions()
	base.MaxCycles = *maxCycles
	base.MaxRuns = *maxRuns
	base.Symmetry = *symmetry
	if *delayMenu != "" {
		base.DelayMenu = nil
		for _, v := range parseMenu(*delayMenu) {
			base.DelayMenu = append(base.DelayMenu, uint32(v))
		}
	}
	if *jitMenu != "" {
		base.JitterMenu = parseMenu(*jitMenu)
	}

	var progs []*check.Prog
	if *weaken > 0 {
		progs = append(progs, check.LeaseWitnessProg())
	}
	if *family {
		shape := check.FamilyShape{SMs: *sms, WarpsPerSM: *warps, OpsPerThread: *ops, Lines: *lines, Atomics: *atomics}
		fam := check.EnumFamily(shape)
		fmt.Printf("rcccheck: family %v: %d canonical programs\n", shape, len(fam))
		if *progCap > 0 && len(fam) > *progCap {
			fam = fam[:*progCap]
			fmt.Printf("rcccheck: capped at %d programs\n", *progCap)
		}
		progs = append(progs, fam...)
	}
	if len(progs) == 0 {
		fmt.Fprintln(os.Stderr, "rcccheck: nothing to check (enable -family or -weaken-lease)")
		os.Exit(2)
	}

	var (
		totalRuns, totalStates, totalGaps int
		truncated                         int
		firstGraph, failGraph             *check.MCGraph
		violation                         *check.MCFailure
		violationProg                     *check.Prog
		violationProto                    string
	)
	wantGraph := *graphOut != "" || *dotOut != ""
	for pi, p := range progs {
		for _, proto := range protos {
			opts := base
			opts.Protocol = proto
			opts.Graph = wantGraph && (firstGraph == nil || failGraph == nil)
			opts.Progress = func(pr check.MCProgress) {
				mm.states.Set(uint64(totalStates + pr.States))
				mm.runs.Set(uint64(totalRuns + pr.Runs))
				mm.frontier.Set(uint64(pr.Frontier))
				mm.depth.Set(uint64(pr.Depth))
			}
			res, err := check.ModelCheck(p, opts)
			if err != nil {
				fmt.Fprintf(os.Stderr, "rcccheck: program %d under %s: %v\n", pi, proto, err)
				os.Exit(2)
			}
			totalRuns += res.Runs
			totalStates += res.States
			if res.Truncated {
				truncated++
				fmt.Fprintf(os.Stderr, "rcccheck: program %d under %s TRUNCATED at %d runs — space not exhausted\n", pi, proto, res.Runs)
			}
			set, enumErr := p.Enumerate(check.DefaultEnumLimits())
			gap := ""
			if enumErr == nil {
				gap = check.OutcomesEqual(res.Outcomes, set)
			}
			if gap != "" {
				totalGaps++
			}
			if *verbose {
				fmt.Printf("program %d under %s: %d runs, %d states, depth %d, %d outcomes", pi, proto, res.Runs, res.States, res.MaxDepth, len(res.Outcomes))
				if gap != "" {
					fmt.Printf(" (coverage gap: %s)", gap)
				}
				fmt.Println()
			}
			if res.Graph != nil && firstGraph == nil {
				firstGraph = res.Graph
			}
			if res.Failure != nil {
				fmt.Printf("rcccheck: VIOLATION under %s on program %d:\n%s%v\n  (%d of %d explored runs violating)\n",
					proto, pi, p, res.Failure, res.Failures, res.Runs)
				mm.failures.Add(1)
				if violation == nil {
					violation, violationProg, violationProto = res.Failure, p, proto.String()
					failGraph = res.Graph
				}
			}
			mm.programs.Add(1)
		}
	}

	graph := failGraph
	if graph == nil {
		graph = firstGraph
	}
	if graph != nil {
		if *graphOut != "" {
			if data, err := graph.JSON(); err == nil {
				if err := os.WriteFile(*graphOut, data, 0o644); err != nil {
					fmt.Fprintf(os.Stderr, "rcccheck: writing %s: %v\n", *graphOut, err)
				} else {
					fmt.Printf("rcccheck: state graph written to %s\n", *graphOut)
				}
			}
		}
		if *dotOut != "" {
			if err := os.WriteFile(*dotOut, []byte(graph.DOT()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "rcccheck: writing %s: %v\n", *dotOut, err)
			} else {
				fmt.Printf("rcccheck: DOT graph written to %s\n", *dotOut)
			}
		}
	}

	fmt.Printf("rcccheck: exhausted %d programs x %d protocols: %d runs, %d states, %d coverage gaps, %d truncated\n",
		len(progs), len(protos), totalRuns, totalStates, totalGaps, truncated)
	if violation != nil {
		fmt.Printf("rcccheck: FAILED — shortest counterexample under %s:\n%s%v\n", violationProto, violationProg, violation)
		os.Exit(1)
	}
	fmt.Println("rcccheck: no violation exists below this size under the explored menus")
}

func parseMenu(s string) []uint64 {
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseUint(strings.TrimSpace(part), 10, 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "rcccheck: bad menu entry %q: %v\n", part, err)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

// mcMetrics publishes exploration progress into an obs.Registry. The
// zero value is inert (nil-safe Series), so updates are unconditional.
type mcMetrics struct {
	states   *obs.Series
	runs     *obs.Series
	frontier *obs.Series
	depth    *obs.Series
	programs *obs.Series
	failures *obs.Series
}

func newMCMetrics(reg *obs.Registry) mcMetrics {
	return mcMetrics{
		states:   reg.Register("rccsim_mc_states", "Distinct machine states fingerprinted across all explorations", obs.Gauge),
		runs:     reg.Register("rccsim_mc_runs", "Machine executions performed across all explorations", obs.Gauge),
		frontier: reg.Register("rccsim_mc_frontier", "Work-stack depth of the current exploration", obs.Gauge),
		depth:    reg.Register("rccsim_mc_depth", "Decision depth of the latest run", obs.Gauge),
		programs: reg.Register("rccsim_mc_programs_done", "(program, protocol) explorations completed", obs.Counter),
		failures: reg.Register("rccsim_mc_failures", "Explorations that found a violation", obs.Counter),
	}
}
