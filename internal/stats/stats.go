// Package stats collects every counter the paper's evaluation reports:
// cycle counts, SC stall cycles attributed to the blocking operation type
// (Figs 1a/1b/8), load/store/atomic latencies (Fig 1c), L1 lease-expiry and
// renewal rates (Figs 6/7), interconnect traffic by message class (Figs
// 7/9c), and the inputs to the interconnect energy model (Fig 9b).
//
// Counters are plain integers, never atomics, and must stay that way: each
// sim.Machine owns exactly one private *Run and is single-threaded
// internally, so no counter is ever written from two goroutines. The
// experiment harness (internal/experiments) parallelizes across whole
// machines, each with its own Run — it must never share a Run between
// concurrent simulations. This invariant is what makes parallel sweeps
// bit-identical to sequential ones.
package stats

import "fmt"

// OpClass classifies a memory operation for latency and stall-blame
// accounting.
type OpClass int

const (
	OpLoad OpClass = iota
	OpStore
	OpAtomic
	numOpClasses
)

var opClassNames = [numOpClasses]string{OpLoad: "load", OpStore: "store", OpAtomic: "atomic"}

func (o OpClass) String() string {
	if uint(o) < uint(numOpClasses) {
		return opClassNames[o]
	}
	return fmt.Sprintf("OpClass(%d)", int(o))
}

// OpClasses lists all operation classes in display order.
func OpClasses() []OpClass {
	out := make([]OpClass, numOpClasses)
	for i := range out {
		out[i] = OpClass(i)
	}
	return out
}

// CycleCat is a top-down cycle-accounting category: every SM-cycle of a
// run is attributed to exactly one category, so the per-run invariant
// sum(Run.CycleAccount) == Cycles × NumSMs holds exactly. The set is
// closed and priority-ordered by the SM's attribution decision tree
// (gpu.SM): an issued cycle always wins; among lost cycles, memory-order
// stalls outrank structural ones, which outrank pure scheduling gaps.
type CycleCat int

const (
	// CatIssued: the SM issued one instruction this cycle.
	CatIssued CycleCat = iota
	// CatSCStallLoad/Store/Atomic: the issue slot was lost to SC memory
	// ordering, blamed on the blocking warp's outstanding op class (the
	// same decomposition as SCStallCycles, Figs 1a/1b/8).
	CatSCStallLoad
	CatSCStallStore
	CatSCStallAtomic
	// CatLeaseRenew: an SC load stall whose L1 is waiting on a lease
	// renewal round trip for an expired-but-unchanged copy (RCC).
	CatLeaseRenew
	// CatFence: a weak-ordering FENCE is draining outstanding accesses.
	CatFence
	// CatBarrier: warps are parked at the threadblock barrier.
	CatBarrier
	// CatMSHRFull: a partially-submitted memory instruction is retrying
	// against a full L1 MSHR file.
	CatMSHRFull
	// CatNoC: the SM is drained of issuable work and waiting on memory
	// responses that are in the interconnect or cache pipelines.
	CatNoC
	// CatDRAM: as CatNoC, but at least one DRAM channel has commands
	// pending, so the wait is (at least partly) device memory.
	CatDRAM
	// CatRollover: the machine is frozen in an RCC timestamp rollover.
	CatRollover
	// CatNoReadyWarp: live warps exist but none is ready (compute
	// latency, scheduling gaps).
	CatNoReadyWarp
	// CatDrained: every warp has retired and all memory drained; the SM
	// idles until the rest of the machine finishes.
	CatDrained
	numCycleCats
)

// String returns the stable wire name (metrics labels, folded stacks,
// golden files; do not reword existing names).
func (c CycleCat) String() string {
	switch c {
	case CatIssued:
		return "issued"
	case CatSCStallLoad:
		return "sc-stall-load"
	case CatSCStallStore:
		return "sc-stall-store"
	case CatSCStallAtomic:
		return "sc-stall-atomic"
	case CatLeaseRenew:
		return "lease-renew"
	case CatFence:
		return "fence"
	case CatBarrier:
		return "barrier-wait"
	case CatMSHRFull:
		return "mshr-full"
	case CatNoC:
		return "noc-inflight"
	case CatDRAM:
		return "dram"
	case CatRollover:
		return "rollover"
	case CatNoReadyWarp:
		return "no-ready-warp"
	case CatDrained:
		return "drained"
	}
	return fmt.Sprintf("CycleCat(%d)", int(c))
}

// CycleCats lists every accounting category in display order
// (exhaustiveness tests, metrics export, report rendering).
func CycleCats() []CycleCat {
	out := make([]CycleCat, numCycleCats)
	for i := range out {
		out[i] = CycleCat(i)
	}
	return out
}

// SCStallCat maps an SC stall blame class to its accounting category.
func SCStallCat(c OpClass) CycleCat {
	switch c {
	case OpStore:
		return CatSCStallStore
	case OpAtomic:
		return CatSCStallAtomic
	}
	return CatSCStallLoad
}

// MsgClass classifies interconnect messages for the Fig 9c traffic
// breakdown.
type MsgClass int

const (
	MsgReq     MsgClass = iota // GETS / read requests (control size)
	MsgStData                  // WRITE and ATOMIC requests (carry a line)
	MsgLdData                  // DATA responses (carry a line)
	MsgAckCtl                  // store/atomic ACKs (control size)
	MsgRenewCt                 // RENEW lease-extension grants (control size)
	MsgInvCtl                  // MESI invalidates, recalls and their acks
	MsgFlushCt                 // RCC rollover flush / flush-ack
	numMsgClasses
)

func (m MsgClass) String() string {
	switch m {
	case MsgReq:
		return "request"
	case MsgStData:
		return "store-data"
	case MsgLdData:
		return "load-data"
	case MsgAckCtl:
		return "ack"
	case MsgRenewCt:
		return "renew"
	case MsgInvCtl:
		return "inv"
	case MsgFlushCt:
		return "flush"
	}
	return fmt.Sprintf("MsgClass(%d)", int(m))
}

// MsgClasses lists all message classes in display order.
func MsgClasses() []MsgClass {
	out := make([]MsgClass, numMsgClasses)
	for i := range out {
		out[i] = MsgClass(i)
	}
	return out
}

// LatencyAcc accumulates a latency distribution (sum, count, max).
type LatencyAcc struct {
	Sum   uint64
	Count uint64
	Max   uint64
}

// Add records one sample.
func (l *LatencyAcc) Add(v uint64) {
	l.Sum += v
	l.Count++
	if v > l.Max {
		l.Max = v
	}
}

// Mean returns the average sample, or 0 with no samples.
func (l *LatencyAcc) Mean() float64 {
	if l.Count == 0 {
		return 0
	}
	return float64(l.Sum) / float64(l.Count)
}

// Run holds every counter for one simulation.
type Run struct {
	// Progress.
	Cycles       uint64
	Instructions uint64
	MemOps       uint64 // warp-level global memory instructions issued

	// Top-down cycle accounting: every SM-cycle charged to exactly one
	// category (see CycleCat). Invariant: TotalAccounted() == Cycles ×
	// NumSMs after every completed run, including the error exits.
	CycleAccount [numCycleCats]uint64

	// SC ordering stalls (Figs 1a, 1b, 8 top).
	MemOpsStalled    uint64               // memory ops that waited >=1 cycle on a prior access
	SCStallCycles    [numOpClasses]uint64 // stall cycles blamed on the outstanding op's class
	SCStallEvents    uint64               // distinct stall episodes
	LocalStallCycles uint64               // scratchpad ops stalled behind globals (subset semantics: included in SCStallCycles blame too)

	// Fence stalls (WO modes).
	FenceStallCycles uint64
	Fences           uint64

	// Per-class warp-level access latency, issue to completion (Fig 1c),
	// with log-scale histograms for tail analysis.
	Latency     [numOpClasses]LatencyAcc
	LatencyHist [numOpClasses]Histogram

	// L1 behaviour (Fig 6 left, Fig 7 right).
	L1Loads       uint64 // line-level load lookups
	L1LoadHits    uint64
	L1LoadExpired uint64 // found V but lease expired (RCC/TC)
	L1LoadMisses  uint64 // true misses (tag absent or invalid)
	L1Stores      uint64
	L1Evictions   uint64
	L1Renewed     uint64 // loads satisfied by a RENEW grant

	// L2 behaviour.
	L2Accesses         uint64
	L2Misses           uint64
	L2Evictions        uint64
	L2StoreStallCycles uint64 // TCS: cycles stores spent waiting for lease expiry

	// Renewal opportunity (Fig 6 right): GETS whose requester held an
	// expired copy, and how many of those found the block unchanged.
	ExpiredGets          uint64
	ExpiredGetsRenewable uint64

	// RCC lease predictor.
	PredictorGrows uint64
	PredictorDrops uint64

	// RCC timestamp rollovers (Sec. III-D).
	Rollovers     uint64
	RolloverStall uint64 // cycles the machine spent stalled rolling over

	// DRAM.
	DRAMReads     uint64
	DRAMWrites    uint64
	DRAMRowHits   uint64
	DRAMRowMisses uint64

	// Interconnect traffic (Figs 7 left, 9c).
	Msgs  [numMsgClasses]uint64
	Flits [numMsgClasses]uint64

	// MESI-specific.
	Invalidations uint64
	Recalls       uint64
}

// New returns an empty counter set.
func New() *Run { return &Run{} }

// Merge folds src's counters into r. Every field of Run is either a sum
// (counters, histogram buckets) or a running maximum, so merging several
// runs' counter sets in any order yields the same totals. The ledger diff
// and rccperf aggregate runs this way. Cycles is excluded: it is machine
// time, set once by the run loop, not a per-component tally.
func (r *Run) Merge(src *Run) {
	r.Instructions += src.Instructions
	r.MemOps += src.MemOps
	for i := range r.CycleAccount {
		r.CycleAccount[i] += src.CycleAccount[i]
	}
	r.MemOpsStalled += src.MemOpsStalled
	for i := range r.SCStallCycles {
		r.SCStallCycles[i] += src.SCStallCycles[i]
	}
	r.SCStallEvents += src.SCStallEvents
	r.LocalStallCycles += src.LocalStallCycles
	r.FenceStallCycles += src.FenceStallCycles
	r.Fences += src.Fences
	for i := range r.Latency {
		r.Latency[i].Sum += src.Latency[i].Sum
		r.Latency[i].Count += src.Latency[i].Count
		if src.Latency[i].Max > r.Latency[i].Max {
			r.Latency[i].Max = src.Latency[i].Max
		}
	}
	for i := range r.LatencyHist {
		for b := range r.LatencyHist[i].Buckets {
			r.LatencyHist[i].Buckets[b] += src.LatencyHist[i].Buckets[b]
		}
		r.LatencyHist[i].Count += src.LatencyHist[i].Count
		if src.LatencyHist[i].Max > r.LatencyHist[i].Max {
			r.LatencyHist[i].Max = src.LatencyHist[i].Max
		}
	}
	r.L1Loads += src.L1Loads
	r.L1LoadHits += src.L1LoadHits
	r.L1LoadExpired += src.L1LoadExpired
	r.L1LoadMisses += src.L1LoadMisses
	r.L1Stores += src.L1Stores
	r.L1Evictions += src.L1Evictions
	r.L1Renewed += src.L1Renewed
	r.L2Accesses += src.L2Accesses
	r.L2Misses += src.L2Misses
	r.L2Evictions += src.L2Evictions
	r.L2StoreStallCycles += src.L2StoreStallCycles
	r.ExpiredGets += src.ExpiredGets
	r.ExpiredGetsRenewable += src.ExpiredGetsRenewable
	r.PredictorGrows += src.PredictorGrows
	r.PredictorDrops += src.PredictorDrops
	r.Rollovers += src.Rollovers
	r.RolloverStall += src.RolloverStall
	r.DRAMReads += src.DRAMReads
	r.DRAMWrites += src.DRAMWrites
	r.DRAMRowHits += src.DRAMRowHits
	r.DRAMRowMisses += src.DRAMRowMisses
	for i := range r.Msgs {
		r.Msgs[i] += src.Msgs[i]
		r.Flits[i] += src.Flits[i]
	}
	r.Invalidations += src.Invalidations
	r.Recalls += src.Recalls
}

// Traffic records one message of class c with the given flit count.
func (r *Run) Traffic(c MsgClass, flits int) {
	r.Msgs[c]++
	r.Flits[c] += uint64(flits)
}

// TotalAccounted sums the cycle-account categories; equals Cycles × NumSMs
// after a completed run.
func (r *Run) TotalAccounted() uint64 {
	var t uint64
	for _, c := range r.CycleAccount {
		t += c
	}
	return t
}

// AccountedSMs recovers the simulated SM count from the closed-sum
// cycle-accounting invariant TotalAccounted() == Cycles × NumSMs. It
// returns (0, false) when the invariant does not hold exactly (zero
// cycles, or a counter set whose accounting was corrupted) — callers such
// as the ledger diff use that as an integrity check before attributing
// per-SM-cycle deltas.
func (r *Run) AccountedSMs() (int, bool) {
	if r.Cycles == 0 {
		return 0, false
	}
	t := r.TotalAccounted()
	if t%r.Cycles != 0 {
		return 0, false
	}
	return int(t / r.Cycles), true
}

// TotalFlits sums flits over all message classes.
func (r *Run) TotalFlits() uint64 {
	var t uint64
	for _, f := range r.Flits {
		t += f
	}
	return t
}

// TotalSCStallCycles sums stall cycles over all blame classes.
func (r *Run) TotalSCStallCycles() uint64 {
	var t uint64
	for _, c := range r.SCStallCycles {
		t += c
	}
	return t
}

// StoreBlameFraction returns the fraction of SC stall cycles blamed on a
// prior store or atomic (Fig 1b).
func (r *Run) StoreBlameFraction() float64 {
	tot := r.TotalSCStallCycles()
	if tot == 0 {
		return 0
	}
	return float64(r.SCStallCycles[OpStore]+r.SCStallCycles[OpAtomic]) / float64(tot)
}

// StalledOpFraction returns the fraction of memory ops that experienced an
// SC stall (Fig 1a).
func (r *Run) StalledOpFraction() float64 {
	if r.MemOps == 0 {
		return 0
	}
	return float64(r.MemOpsStalled) / float64(r.MemOps)
}

// MeanSCStallLatency is the average duration of one SC stall episode
// (Fig 8 bottom).
func (r *Run) MeanSCStallLatency() float64 {
	if r.SCStallEvents == 0 {
		return 0
	}
	return float64(r.TotalSCStallCycles()) / float64(r.SCStallEvents)
}

// L1ExpiredFraction is the fraction of L1 load lookups that found the block
// valid but expired (Fig 6 left).
func (r *Run) L1ExpiredFraction() float64 {
	if r.L1Loads == 0 {
		return 0
	}
	return float64(r.L1LoadExpired) / float64(r.L1Loads)
}

// RenewableFraction is the fraction of expired-copy GETS that found the L2
// block unchanged (Fig 6 right).
func (r *Run) RenewableFraction() float64 {
	if r.ExpiredGets == 0 {
		return 0
	}
	return float64(r.ExpiredGetsRenewable) / float64(r.ExpiredGets)
}

// IPC returns warp instructions per cycle.
func (r *Run) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// histBuckets is the number of power-of-two latency buckets (bucket i
// holds samples with floor(log2(v)) == i; bucket 0 holds v <= 1).
const histBuckets = 24

// Histogram is a log-scale latency histogram. Buckets are powers of two,
// which is plenty of resolution for "how heavy is the tail" questions at
// zero allocation cost.
type Histogram struct {
	Buckets [histBuckets]uint64
	Count   uint64
	Max     uint64 // largest sample seen (bounds the overflow bucket)
}

// Add records one sample.
func (h *Histogram) Add(v uint64) {
	if v > h.Max {
		h.Max = v
	}
	i := 0
	for v > 1 && i < histBuckets-1 {
		v >>= 1
		i++
	}
	h.Buckets[i]++
	h.Count++
}

// Percentile returns an upper bound for the p-th percentile (p in [0,1]):
// the inclusive top edge 2^(i+1)-1 of the bucket i containing that rank
// (bucket i holds samples in [2^i, 2^(i+1)); bucket 0 holds 0 and 1). The
// last bucket is unbounded above, so its edge saturates to the largest
// observed sample. Zero with no samples.
func (h *Histogram) Percentile(p float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := uint64(p * float64(h.Count-1))
	var seen uint64
	for i, n := range h.Buckets {
		seen += n
		if seen > rank {
			if i == histBuckets-1 {
				return h.Max
			}
			return 1<<uint(i+1) - 1
		}
	}
	return h.Max
}
