// Package experiments regenerates every table and figure of the paper's
// evaluation: the motivation study (Fig 1), lease expiry and renewal rates
// (Fig 6), the renewal/predictor ablations (Fig 7), SC stall rates and
// latencies (Fig 8), performance/energy/traffic against all baselines
// (Fig 9), the weak-ordering comparison (Fig 10), and the protocol
// complexity table (Table V).
//
// A Runner memoizes (protocol, benchmark) simulations so figures that
// share runs (e.g. Fig 8 and Fig 9) pay for them once, runs the parameter
// sweeps (sweeps.go), and fans independent simulations out across a
// worker pool (see parallel.go).
package experiments

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"rccsim/internal/config"
	"rccsim/internal/obs"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// Runner is the one run context for figures and sweeps: it executes
// benchmark simulations for one base machine configuration, up to Jobs
// at a time, under one set of hooks. Figure points are memoized in
// memory; sweep points (WarpSweep, TCLeaseSweep, ...) are not. It is safe
// for concurrent use: the memo cache dedupes in-flight runs, so figures
// requested from several goroutines still pay for each shared simulation
// once.
type Runner struct {
	Base config.Config
	Jobs int // max concurrent simulations (set at construction)

	// Progress, when non-nil, is invoked after each point a Preload batch
	// or a sweep completes (done so far, batch total, completed point's
	// label). It runs on worker goroutines in completion order and must
	// only drive side channels like stderr (see StderrProgress); it never
	// affects results.
	Progress func(done, total int, label string)

	// Started and Observe, when non-nil, bracket each point the Runner
	// runs: Started fires as the point begins, Observe when it completes
	// with the finished stats (nil on failure). Figure points are
	// labelled "bench/protocol" plus any ablation suffix, sweep points
	// "bench/protocol@i" with i the point's input index. Memo hits invoke
	// neither (the point is not run again). Both run on worker goroutines
	// — side channels only (e.g. obs.Tracker.Begin/Done,
	// ledger.Collector.Observe).
	Started func(label string)
	Observe func(label string, st *stats.Run)

	// Attach, when non-nil, supplies the event bus and contention sketch
	// (either may be nil) attached to sweep point i's machine. It is
	// called from worker goroutines, and each returned observer must be
	// used by that point alone: sharing one between two points is a data
	// race. Hand out one buffering bus and one sketch per point and
	// replay/merge them in point order after the sweep, so the output is
	// independent of Jobs. Figure points never call it.
	Attach func(point int) (*trace.Bus, *obs.Heat)

	mu    sync.Mutex
	cache map[cacheKey]*flight
	sem   chan struct{}
	runs  atomic.Uint64 // simulations actually executed (not deduped)
}

type cacheKey struct {
	protocol  config.Protocol
	bench     string
	renew     bool
	predictor bool
}

// NewRunner returns a Runner over base with one worker per CPU. The base
// protocol field is ignored; each experiment selects its own protocols.
func NewRunner(base config.Config) *Runner {
	return NewRunnerJobs(base, 0)
}

// NewRunnerJobs returns a Runner over base executing at most jobs
// simulations concurrently; jobs <= 0 means GOMAXPROCS, jobs == 1 is
// strictly sequential.
func NewRunnerJobs(base config.Config, jobs int) *Runner {
	if jobs <= 0 {
		jobs = defaultJobs()
	}
	return &Runner{
		Base:  base,
		Jobs:  jobs,
		cache: make(map[cacheKey]*flight),
		sem:   make(chan struct{}, jobs),
	}
}

// result runs (or returns the cached) simulation of b under protocol p.
func (r *Runner) result(p config.Protocol, b workload.Benchmark) (sim.Result, error) {
	return r.resultOpt(p, b, true, true)
}

// GMean computes the geometric mean of xs (1.0 for empty input).
func GMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// Fig1Row is one benchmark of the motivation study (Fig 1a–d): SC stall
// frequency, the fraction of stall cycles due to prior stores, load and
// store latencies, and the speedup of idealized coherence permissions —
// all measured on the MESI-with-write-through-L1s SC baseline.
type Fig1Row struct {
	Bench        string
	Inter        bool
	StallFrac    float64 // Fig 1a: % memory ops with an SC stall
	StoreBlame   float64 // Fig 1b: % stall cycles due to a prior store/atomic
	LoadLat      float64 // Fig 1c (mean)
	StoreLat     float64 // Fig 1c (mean)
	LoadP95      uint64  // tail latency (log-bucket upper bound)
	StoreP95     uint64
	IdealSpeedup float64 // Fig 1d: SC-IDEAL over MESI
}

// Fig1 runs the motivation study over all twelve benchmarks.
func (r *Runner) Fig1() ([]Fig1Row, error) {
	if err := r.Preload(crossReqs([]config.Protocol{config.MESI, config.SCIdeal}, workload.All())); err != nil {
		return nil, err
	}
	var rows []Fig1Row
	for _, b := range workload.All() {
		mesi, err := r.result(config.MESI, b)
		if err != nil {
			return nil, err
		}
		ideal, err := r.result(config.SCIdeal, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, fig1Row(b, mesi, ideal))
	}
	return rows, nil
}

// fig1Row assembles one motivation-study row from a MESI baseline run and
// its SC-IDEAL counterpart. Latency columns index by stats.OpClass: the
// old bare 0/1 subscripts had load and store swapped (OpLoad is 0).
func fig1Row(b workload.Benchmark, mesi, ideal sim.Result) Fig1Row {
	st := mesi.Stats
	return Fig1Row{
		Bench:        b.Name,
		Inter:        b.Inter,
		StallFrac:    st.StalledOpFraction(),
		StoreBlame:   st.StoreBlameFraction(),
		LoadLat:      st.Latency[stats.OpLoad].Mean(),
		StoreLat:     st.Latency[stats.OpStore].Mean(),
		LoadP95:      st.LatencyHist[stats.OpLoad].Percentile(0.95),
		StoreP95:     st.LatencyHist[stats.OpStore].Percentile(0.95),
		IdealSpeedup: float64(st.Cycles) / float64(ideal.Stats.Cycles),
	}
}

// Fig6Row reports, for RCC, how often loads find an L1 block valid but
// expired (left) and what fraction of those refetches find the L2 block
// unchanged, i.e. renewable (right).
type Fig6Row struct {
	Bench         string
	Inter         bool
	ExpiredFrac   float64
	RenewableFrac float64
}

// Fig6 measures expiry and renewability under RCC.
func (r *Runner) Fig6() ([]Fig6Row, error) {
	if err := r.Preload(crossReqs([]config.Protocol{config.RCC}, workload.All())); err != nil {
		return nil, err
	}
	var rows []Fig6Row
	for _, b := range workload.All() {
		res, err := r.result(config.RCC, b)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6Row{
			Bench:         b.Name,
			Inter:         b.Inter,
			ExpiredFrac:   res.Stats.L1ExpiredFraction(),
			RenewableFrac: res.Stats.RenewableFraction(),
		})
	}
	return rows, nil
}

// Fig7Row reports the two RCC mechanism ablations: interconnect traffic
// with and without the renewal mechanism (left), and the L1 expired-read
// rate with and without the lease predictor (right).
type Fig7Row struct {
	Bench         string
	Inter         bool
	FlitsNoRenew  uint64
	FlitsRenew    uint64
	ExpiredNoPred float64
	ExpiredPred   float64
}

// Fig7 runs the renewal (−R/+R) and predictor (−P/+P) ablations.
func (r *Runner) Fig7() ([]Fig7Row, error) {
	var reqs []Request
	for _, b := range workload.All() {
		reqs = append(reqs,
			Request{Protocol: config.RCC, Bench: b, Renew: false, Predictor: true},
			Request{Protocol: config.RCC, Bench: b, Renew: true, Predictor: true},
			Request{Protocol: config.RCC, Bench: b, Renew: true, Predictor: false})
	}
	if err := r.Preload(reqs); err != nil {
		return nil, err
	}
	var rows []Fig7Row
	for _, b := range workload.All() {
		noRenew, err := r.resultOpt(config.RCC, b, false, true)
		if err != nil {
			return nil, err
		}
		full, err := r.resultOpt(config.RCC, b, true, true)
		if err != nil {
			return nil, err
		}
		noPred, err := r.resultOpt(config.RCC, b, true, false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig7Row{
			Bench:         b.Name,
			Inter:         b.Inter,
			FlitsNoRenew:  noRenew.Stats.TotalFlits(),
			FlitsRenew:    full.Stats.TotalFlits(),
			ExpiredNoPred: noPred.Stats.L1ExpiredFraction(),
			ExpiredPred:   full.Stats.L1ExpiredFraction(),
		})
	}
	return rows, nil
}

// Fig8Row compares SC stall behaviour across the SC-capable protocols,
// normalized to MESI: total SC stall cycles (top) and the mean latency of
// resolving one stall (bottom).
type Fig8Row struct {
	Bench           string
	Inter           bool
	StallCycles     map[config.Protocol]float64 // normalized to MESI
	StallLatency    map[config.Protocol]float64 // normalized to MESI
	AbsStallCycles  map[config.Protocol]uint64
	AbsStallLatency map[config.Protocol]float64
}

// Fig8Protocols are the SC-capable protocols Fig 8 compares.
var Fig8Protocols = []config.Protocol{config.MESI, config.TCS, config.RCC}

// Fig8 measures SC stall rates and resolve latencies.
func (r *Runner) Fig8() ([]Fig8Row, error) {
	if err := r.Preload(crossReqs(Fig8Protocols, workload.All())); err != nil {
		return nil, err
	}
	var rows []Fig8Row
	for _, b := range workload.All() {
		row := Fig8Row{
			Bench:           b.Name,
			Inter:           b.Inter,
			StallCycles:     map[config.Protocol]float64{},
			StallLatency:    map[config.Protocol]float64{},
			AbsStallCycles:  map[config.Protocol]uint64{},
			AbsStallLatency: map[config.Protocol]float64{},
		}
		var baseCycles, baseLat float64
		for _, p := range Fig8Protocols {
			res, err := r.result(p, b)
			if err != nil {
				return nil, err
			}
			cyc := float64(res.Stats.TotalSCStallCycles())
			lat := res.Stats.MeanSCStallLatency()
			if p == config.MESI {
				baseCycles, baseLat = cyc, lat
			}
			row.AbsStallCycles[p] = res.Stats.TotalSCStallCycles()
			row.AbsStallLatency[p] = lat
			row.StallCycles[p] = ratio(cyc, baseCycles)
			row.StallLatency[p] = ratio(lat, baseLat)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

func ratio(x, base float64) float64 {
	if base == 0 {
		if x == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return x / base
}

// Fig9Row is the headline comparison: speedup over MESI, interconnect
// energy by component, and interconnect traffic by message class, for each
// protocol.
type Fig9Row struct {
	Bench   string
	Inter   bool
	Speedup map[config.Protocol]float64 // vs MESI
	Energy  map[config.Protocol]EnergyParts
	Traffic map[config.Protocol]TrafficParts
}

// EnergyParts is the Fig 9b component breakdown, normalized to the MESI
// total for the same benchmark.
type EnergyParts struct {
	Buffer, Switch, Link, Static, Total float64
}

// TrafficParts is the Fig 9c flit breakdown, normalized to the MESI total.
type TrafficParts struct {
	Request, StoreData, LoadData, Ack, Renew, Inv, Total float64
}

// Fig9Protocols are the protocols of the headline comparison.
var Fig9Protocols = []config.Protocol{config.MESI, config.TCS, config.TCW, config.RCC}

// Fig9 runs the headline comparison.
func (r *Runner) Fig9() ([]Fig9Row, error) {
	if err := r.Preload(crossReqs(Fig9Protocols, workload.All())); err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for _, b := range workload.All() {
		row := Fig9Row{
			Bench:   b.Name,
			Inter:   b.Inter,
			Speedup: map[config.Protocol]float64{},
			Energy:  map[config.Protocol]EnergyParts{},
			Traffic: map[config.Protocol]TrafficParts{},
		}
		mesi, err := r.result(config.MESI, b)
		if err != nil {
			return nil, err
		}
		baseCyc := float64(mesi.Stats.Cycles)
		baseEnergy := mesi.Energy.Total()
		baseFlits := float64(mesi.Stats.TotalFlits())
		for _, p := range Fig9Protocols {
			res, err := r.result(p, b)
			if err != nil {
				return nil, err
			}
			st := res.Stats
			row.Speedup[p] = baseCyc / float64(st.Cycles)
			row.Energy[p] = EnergyParts{
				Buffer: res.Energy.Buffer / baseEnergy,
				Switch: res.Energy.Switch / baseEnergy,
				Link:   res.Energy.Link / baseEnergy,
				Static: res.Energy.Static / baseEnergy,
				Total:  res.Energy.Total() / baseEnergy,
			}
			row.Traffic[p] = TrafficParts{
				Request:   float64(st.Flits[stats.MsgReq]) / baseFlits,
				StoreData: float64(st.Flits[stats.MsgStData]) / baseFlits,
				LoadData:  float64(st.Flits[stats.MsgLdData]) / baseFlits,
				Ack:       float64(st.Flits[stats.MsgAckCtl]) / baseFlits,
				Renew:     float64(st.Flits[stats.MsgRenewCt]) / baseFlits,
				Inv:       float64(st.Flits[stats.MsgInvCtl]) / baseFlits,
				Total:     float64(st.TotalFlits()) / baseFlits,
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig10Row compares the weak-ordering implementations against RCC-SC.
type Fig10Row struct {
	Bench   string
	Inter   bool
	Speedup map[config.Protocol]float64 // vs RCC (SC)
}

// Fig10Protocols are RCC-SC (baseline), RCC-WO and TCW.
var Fig10Protocols = []config.Protocol{config.RCC, config.RCCWO, config.TCW}

// Fig10 runs the weak-ordering comparison.
func (r *Runner) Fig10() ([]Fig10Row, error) {
	if err := r.Preload(crossReqs(Fig10Protocols, workload.All())); err != nil {
		return nil, err
	}
	var rows []Fig10Row
	for _, b := range workload.All() {
		row := Fig10Row{Bench: b.Name, Inter: b.Inter, Speedup: map[config.Protocol]float64{}}
		base, err := r.result(config.RCC, b)
		if err != nil {
			return nil, err
		}
		for _, p := range Fig10Protocols {
			res, err := r.result(p, b)
			if err != nil {
				return nil, err
			}
			row.Speedup[p] = float64(base.Stats.Cycles) / float64(res.Stats.Cycles)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// SpeedupGMeans summarizes Fig 9 speedups as geometric means over the
// inter- and intra-workgroup groups.
func SpeedupGMeans(rows []Fig9Row) (inter, intra map[config.Protocol]float64) {
	inter = map[config.Protocol]float64{}
	intra = map[config.Protocol]float64{}
	for _, p := range Fig9Protocols {
		var in, out []float64
		for _, row := range rows {
			if row.Inter {
				in = append(in, row.Speedup[p])
			} else {
				out = append(out, row.Speedup[p])
			}
		}
		inter[p] = GMean(in)
		intra[p] = GMean(out)
	}
	return inter, intra
}

// TableVRow is one protocol's complexity entry (Table V): stable+transient
// state and transition counts. Paper columns are the published numbers;
// Impl columns count this repository's implementation.
type TableVRow struct {
	Protocol                    string
	PaperL1States, PaperL1Trans int
	PaperL2States, PaperL2Trans int
	ImplL1States, ImplL2States  int
}

// TableV returns the protocol complexity comparison. The implementation
// counts are the states realized in this codebase: RCC L1 {I,V,IV,II,VI},
// RCC L2 {I,V,IV,IAV}; TC L1 {I,V,IV,II}, TC L2 {I,V,IV}; MESI-WT L1
// {I,S,IS,IM}, MESI L2 {I,V,IV} plus the per-line invalidation-round
// ownership state.
func TableV() []TableVRow {
	return []TableVRow{
		{Protocol: "MESI", PaperL1States: 16, PaperL1Trans: 81, PaperL2States: 15, PaperL2Trans: 50, ImplL1States: 4, ImplL2States: 4},
		{Protocol: "TCS", PaperL1States: 5, PaperL1Trans: 27, PaperL2States: 8, PaperL2Trans: 23, ImplL1States: 4, ImplL2States: 3},
		{Protocol: "TCW", PaperL1States: 5, PaperL1Trans: 42, PaperL2States: 8, PaperL2Trans: 34, ImplL1States: 4, ImplL2States: 3},
		{Protocol: "RCC", PaperL1States: 5, PaperL1Trans: 33, PaperL2States: 4, PaperL2Trans: 14, ImplL1States: 5, ImplL2States: 4},
	}
}

// Fmt renders a ratio as the paper prints bars (two decimals).
func Fmt(x float64) string {
	if math.IsInf(x, 1) {
		return "inf"
	}
	return fmt.Sprintf("%.2f", x)
}
