// Package gpu models the streaming multiprocessors (SMs): warp state, the
// loose round-robin scheduler, memory coalescing at warp granularity, and
// the consistency-model issue rules — the "naïve SC" of the paper (one
// outstanding global access per warp; scratchpad accesses stall behind
// globals; fences are hardware no-ops) and weak ordering (many outstanding
// accesses; FENCE stalls until the protocol's completion rule holds).
//
// The SM is also where every SC stall is measured and attributed to the
// class of the blocking operation (Figs 1a, 1b and 8).
package gpu

import (
	"math/bits"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// woMaxOutstanding bounds in-flight memory instructions per warp under
// weak ordering (LSU queue depth).
const woMaxOutstanding = 8

// Observer receives load results (used by the SC litmus checker; nil in
// performance runs).
type Observer interface {
	LoadObserved(sm, warp, pc int, line, val uint64)
}

// EnvProbe lets the cycle accounting ask the machine about state the SM
// cannot see locally: whether an RCC rollover is in progress, and whether
// a drained SM's outstanding memory is waiting on DRAM or only the NoC /
// cache pipelines. Optional (nil skips both refinements).
type EnvProbe interface {
	RolloverActive() bool
	MemWaitCat() stats.CycleCat
}

// renewProber is implemented by L1s that can report an in-flight lease
// renewal (RCC), refining sc-stall-load into lease-renew.
type renewProber interface {
	RenewPending() bool
}

// tracker follows one warp-level memory instruction through its (possibly
// divergent) line accesses.
type tracker struct {
	w         *warp
	class     stats.OpClass
	issue     timing.Cycle
	remaining int
	pc        int
}

type warp struct {
	id        int
	trace     workload.Trace
	pc        int
	busyUntil timing.Cycle
	done      bool

	// nextOp caches trace[pc].Op (undefined once done) so scheduler scans
	// read only the warp struct, never the trace memory.
	nextOp workload.OpKind

	outstanding int // memory instructions in flight
	outClass    [3]int

	// Partially-submitted memory instruction: line accesses rejected by a
	// full L1 MSHR, retried on later cycles before the warp may proceed.
	// subSlot is the instruction's tracker slot (-1 when none pending);
	// subIn is a copy of the instruction, so a single-line access submits
	// from the warp itself, and subNext indexes its next line to submit.
	subSlot int32
	subNext uint8
	subIn   workload.Instr

	atBarrier bool

	// wasStalled marks that the op at the head of this warp was blocked
	// by SC ordering while the SM had nothing else to issue; the op is
	// counted in MemOpsStalled when it finally issues (Fig 1a).
	wasStalled bool

	// WO fence bookkeeping.
	fenceStalled bool
	fenceFrom    timing.Cycle
}

// SM is one streaming multiprocessor.
type SM struct {
	cfg config.Config
	id  int
	sc  bool
	l1  coherence.L1
	st  *stats.Run
	obs Observer

	// The event bus and the span recorder; Heat is unused, as the SM
	// touches no cache line itself.
	trace.Observers

	// lastSpanDone is the most recent tracked request to complete on this
	// SM; barrierDep snapshots it when the block barrier releases, so the
	// next tracked op issued after the release gets a "barrier" dependency
	// edge (the barrier serialized it behind that completion).
	lastSpanDone uint64
	barrierDep   uint64

	warps  []*warp
	arena  []warp        // backs warps
	pool   workload.Pool // the program's divergent-access lines
	rr     int
	gto    bool // greedy-then-oldest instead of loose round-robin
	greedy int  // GTO: warp that issued last
	liveN  int

	// Request ids are allocated per SM, strided by the SM count, so id
	// streams from different SMs never collide yet need no shared counter.
	// The n-th request of SM s gets id n*NumSMs + s + 1; ids stay nonzero.
	// Span IDs derive from these ids, so observed_stream.digest pins the
	// scheme.
	idSeq    uint64
	idStride uint64

	// Tracker and Request pools. Trackers live in a slot-indexed slice;
	// each Request carries its tracker's slot so completion needs no map.
	// Both object kinds are recycled through free lists, so the steady
	// state allocates nothing. liveTrk and pendingSubs keep Done() O(1).
	trackers    []*tracker
	freeSlots   []int32
	freeReqs    []*coherence.Request
	trkChunk    []tracker           // bump arena backing new trackers
	reqChunk    []coherence.Request // bump arena backing new requests
	liveTrk     int
	pendingSubs int

	// Sleep cache: after a scan finds nothing issuable, the SM skips
	// further scans until wakeAt, unless a completion or barrier release
	// marks it dirty. This keeps idle cycles O(1) instead of O(warps).
	dirty  bool
	wakeAt timing.Cycle

	// Busy wheel (SC only): a 64-cycle bitmap of upcoming busyUntil wake
	// times anchored at busyBase, maintained at issue time so the no-issue
	// path reads the next wake in O(1) instead of scanning every warp.
	// Bits may be stale (a warp re-issued) — that only wakes the SM early,
	// which the scheduler contract allows. busyFar is the minimum wake
	// beyond the wheel horizon; when the wheel drains, a full scan rebuilds
	// both.
	busyBase timing.Cycle
	busyMask uint64
	busyFar  timing.Cycle

	// SC stall accounting (Figs 1a/1b/8): an SC stall is an issue slot
	// the SM loses because the only issuable work is blocked by memory
	// ordering. idleFrom marks the start of the current lost interval;
	// the blame class comes from the blocking warp's outstanding op.
	idleValid bool
	idleFrom  timing.Cycle
	idleBlame stats.OpClass

	// Top-down cycle accounting: [acctUpTo, now) is an open interval of
	// cycles not yet charged to CycleAccount; acctCat is the category the
	// interval will be charged to. acctIssue/acctStall re-evaluate the
	// category at every visited tick, so a sleep interval is charged to
	// the decision made when the SM went to sleep (the machine force-wakes
	// every SM on rollover, the one sleep-spanning category change).
	acctUpTo timing.Cycle
	acctCat  stats.CycleCat
	// Attribution inputs maintained incrementally: sawLSUFull marks a WO
	// warp rejected for a full LSU queue during this scan; fenceStalledN /
	// barrierN count warps parked at fences / the block barrier; probe and
	// renew are the optional environment probes.
	sawLSUFull    bool
	fenceStalledN int
	barrierN      int
	probe         EnvProbe
	renew         renewProber
	// rollover mirrors probe.RolloverActive(), pushed by the machine at the
	// rollover phase edges so the per-scan attribution check is one flag
	// read instead of an interface call.
	rollover bool

	// Scan masks, maintained by reclassify after every warp-state change:
	// cand bit i set ⟺ warps[i] is not provably blocked (not
	// done-and-drained, not at a barrier, not SC-blocked, not parked), so
	// scans touch only plausible warps; scMask bit i set ⟺ warps[i] is
	// blocked purely by SC ordering (the set the stall accounting draws
	// its blame from). A scan mutates the masks only at the warp it is
	// trying: an issue ends the scan, and a failed try that parks the
	// warp clears only that warp's own cand bit, behind the scan cursor.
	cand   []uint64
	scMask []uint64
	// subWait bit i set ⟺ warps[i]'s partially-submitted instruction was
	// refused by the L1 and has not been returned to cand since. A refusal
	// means the L1 is Closed (its MSHR table is full, or it is frozen for
	// a rollover) and the line neither has an MSHR nor is readable. While
	// the L1 stays Closed, only this SM's own accepted access to a line can
	// give that line an MSHR, so a retry is known to fail until then:
	// Tick scans parked warps only while the L1 is open, an accepted
	// access returns the warps parked on its line to cand (unparkLine),
	// and ForceWake returns them all, since a warp parked while the L1 was
	// frozen may have had an MSHR for its line.
	subWait []uint64
	// scan is Tick's scratch mask, cand | subWait while the L1 is open.
	scan []uint64
}

func bitSet(mask []uint64, i int) bool { return mask[i>>6]&(1<<uint(i&63)) != 0 }

func setBit(mask []uint64, i int, on bool) {
	if on {
		mask[i>>6] |= 1 << uint(i&63)
	} else {
		mask[i>>6] &^= 1 << uint(i&63)
	}
}

// nextBit returns the first set bit in [from, n), or -1.
func nextBit(mask []uint64, from, n int) int {
	if from >= n {
		return -1
	}
	w := from >> 6
	word := mask[w] &^ (1<<uint(from&63) - 1)
	for {
		if word != 0 {
			i := w<<6 + bits.TrailingZeros64(word)
			if i >= n {
				return -1
			}
			return i
		}
		w++
		if w >= len(mask) {
			return -1
		}
		word = mask[w]
	}
}

// reclassify recomputes w's scan-mask bits from its current state. Besides
// the SC and barrier blocks, two parked states keep a warp out of cand: a
// refused submit (subWait, scanned while the L1 is open) and a WO fence with
// accesses still in flight (only MemDone lowers outstanding, and it
// reclassifies).
func (s *SM) reclassify(w *warp) {
	sc := s.scBlocked(w)
	setBit(s.scMask, w.id, sc)
	setBit(s.cand, w.id, !sc && !w.atBarrier && !(w.done && w.subSlot < 0) &&
		!bitSet(s.subWait, w.id) && !(w.fenceStalled && w.outstanding > 0))
}

// NewSM builds SM id running its warp traces of prog, prog.SMs[id],
// through l1.
func NewSM(cfg config.Config, id int, l1 coherence.L1, st *stats.Run, prog *workload.Program, obs Observer) *SM {
	s := &SM{
		cfg:      cfg,
		id:       id,
		sc:       cfg.Consistency() == config.SC,
		l1:       l1,
		st:       st,
		idStride: uint64(cfg.NumSMs),
		gto:      cfg.Scheduler == config.GTO,
	}
	if rp, ok := l1.(renewProber); ok {
		s.renew = rp
	}
	s.Reset(prog, obs)
	return s
}

// Reset returns the SM to the state NewSM builds for prog and obs, with
// the observers detached. It keeps the warp arena, the scan masks and the
// tracker and request pools; every tracker slot is free again and is
// handed out in the order a new SM would number it. The L1, counters and
// environment probe stay bound.
func (s *SM) Reset(prog *workload.Program, obs Observer) {
	traces := prog.SMs[s.id]
	s.pool = prog.Pool
	s.obs = obs
	s.Observers = trace.Observers{}
	s.lastSpanDone, s.barrierDep = 0, 0
	s.rr, s.greedy, s.liveN = 0, 0, 0
	s.idSeq = 0

	s.freeSlots = s.freeSlots[:0]
	for i := len(s.trackers) - 1; i >= 0; i-- {
		*s.trackers[i] = tracker{}
		s.freeSlots = append(s.freeSlots, int32(i))
	}
	s.liveTrk, s.pendingSubs = 0, 0

	s.dirty, s.wakeAt = true, 0
	s.busyBase, s.busyMask, s.busyFar = 0, 0, timing.Never
	s.idleValid, s.idleFrom, s.idleBlame = false, 0, 0
	s.acctUpTo, s.acctCat = 0, stats.CatDrained
	s.sawLSUFull, s.fenceStalledN, s.barrierN = false, 0, 0
	s.rollover = false

	// One arena: scans walk contiguous memory.
	if cap(s.arena) < len(traces) {
		s.arena = make([]warp, len(traces))
	}
	s.arena = s.arena[:len(traces)]
	s.warps = s.warps[:0]
	for i, tr := range traces {
		w := &s.arena[i]
		// Zeroed, then set: a literal with fields is built aside and
		// copied in whole.
		*w = warp{}
		w.id, w.trace, w.subSlot = i, tr, -1
		if len(tr) == 0 {
			w.done = true
		} else {
			w.nextOp = tr[0].Op
			s.liveN++
		}
		s.warps = append(s.warps, w)
	}
	words := max((len(s.warps)+63)/64, 1)
	s.cand = resetMask(s.cand, words)
	s.scMask = resetMask(s.scMask, words)
	s.subWait = resetMask(s.subWait, words)
	s.scan = resetMask(s.scan, words)
	for _, w := range s.warps {
		s.reclassify(w)
	}
	s.checkBarrier()
}

// resetMask returns a zeroed bit mask of words words, reusing m's storage.
func resetMask(m []uint64, words int) []uint64 {
	if cap(m) < words {
		return make([]uint64, words)
	}
	m = m[:words]
	clear(m)
	return m
}

// Done reports whether every warp has retired its trace and every memory
// instruction has been submitted and completed. All three counters are
// maintained incrementally, so this is O(1).
func (s *SM) Done() bool {
	return s.liveN == 0 && s.liveTrk == 0 && s.pendingSubs == 0
}

// Blocked names the instruction a stuck SM has waited on longest.
type Blocked struct {
	Warp, PC int
	Op       workload.OpKind
	Line     uint64 // the instruction's first line, when HasLine
	HasLine  bool
}

// OldestBlocked returns what holds the SM back longest: the oldest memory
// instruction in flight (earliest issue, then lowest tracker slot), or,
// with none in flight, the unfinished warp furthest behind (lowest pc,
// then lowest id) and the instruction it waits at. ok is false once every
// warp is done.
func (s *SM) OldestBlocked() (b Blocked, ok bool) {
	var oldest *tracker
	for _, tr := range s.trackers {
		if tr.w != nil && (oldest == nil || tr.issue < oldest.issue) {
			oldest = tr
		}
	}
	switch {
	case oldest != nil:
		b.Warp, b.PC = oldest.w.id, oldest.pc
	default:
		best := -1
		for i, w := range s.warps {
			pc := w.pc
			if w.atBarrier {
				pc-- // waiting at the barrier it already passed
			} else if w.done {
				continue
			}
			if best < 0 || pc < b.PC {
				best, b.Warp, b.PC = i, w.id, pc
			}
		}
		if best < 0 {
			return Blocked{}, false
		}
	}
	in := &s.warps[b.Warp].trace[b.PC]
	b.Op = in.Op
	if in.Op.IsGlobal() && in.N > 0 {
		b.Line, b.HasLine = s.pool.Line(in, 0), true
	}
	return b, true
}

// allocTracker takes a tracker from the pool (or grows it).
// allocChunk sizes the bump-arena blocks backing trackers and requests:
// high-water growth costs one allocation per chunk instead of one per
// object.
const allocChunk = 64

func (s *SM) allocTracker() (int32, *tracker) {
	s.liveTrk++
	if n := len(s.freeSlots); n > 0 {
		slot := s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
		return slot, s.trackers[slot]
	}
	slot := int32(len(s.trackers))
	if len(s.trkChunk) == 0 {
		s.trkChunk = make([]tracker, allocChunk)
	}
	tr := &s.trkChunk[0]
	s.trkChunk = s.trkChunk[1:]
	s.trackers = append(s.trackers, tr)
	return slot, tr
}

// allocReq takes a Request from the pool (or allocates a fresh one). The
// caller overwrites every field.
func (s *SM) allocReq() *coherence.Request {
	if n := len(s.freeReqs); n > 0 {
		r := s.freeReqs[n-1]
		s.freeReqs = s.freeReqs[:n-1]
		return r
	}
	if len(s.reqChunk) == 0 {
		s.reqChunk = make([]coherence.Request, allocChunk)
	}
	r := &s.reqChunk[0]
	s.reqChunk = s.reqChunk[1:]
	return r
}

// Tick attempts to issue one instruction (loose round-robin across warps).
func (s *SM) Tick(now timing.Cycle) bool {
	if !s.dirty && now < s.wakeAt {
		return false
	}
	s.dirty = false
	s.sawLSUFull = false
	n := len(s.warps)
	// Parked warps are scanned, in their places in the scheduler's order,
	// only while the L1 can take a new line (see subWait).
	mask := s.cand
	if s.pendingSubs > 0 && !s.l1.Closed() {
		for i, c := range s.cand {
			s.scan[i] = c | s.subWait[i]
		}
		mask = s.scan
	}
	if s.gto {
		// Greedy-then-oldest: stick with the last issuing warp, then
		// fall back to the oldest (lowest-id) ready warp.
		// The greedy warp's candidate bit is tested first: an SM with no
		// warps has no warps[0].
		if bitSet(mask, s.greedy) && s.warps[s.greedy].busyUntil <= now && s.tryIssue(s.warps[s.greedy], now) {
			s.reclassify(s.warps[s.greedy])
			s.wakeAt = now + 1
			s.closeIdle(now)
			s.acctIssue(now)
			return true
		}
		for i := nextBit(mask, 0, n); i >= 0; i = nextBit(mask, i+1, n) {
			if i == s.greedy {
				continue
			}
			w := s.warps[i]
			if w.busyUntil > now {
				continue
			}
			if s.tryIssue(w, now) {
				s.reclassify(w)
				s.greedy = i
				s.wakeAt = now + 1
				s.closeIdle(now)
				s.acctIssue(now)
				return true
			}
		}
	} else {
		// Loose round-robin over candidate warps: [rr, n) then [0, rr).
		lo, hi := s.rr, n
		for pass := 0; pass < 2; pass++ {
			for i := nextBit(mask, lo, hi); i >= 0; i = nextBit(mask, i+1, hi) {
				w := s.warps[i]
				if w.busyUntil > now {
					continue
				}
				if s.tryIssue(w, now) {
					s.reclassify(w)
					s.rr = i + 1
					if s.rr == n {
						s.rr = 0
					}
					s.wakeAt = now + 1
					s.closeIdle(now)
					s.acctIssue(now)
					return true
				}
			}
			lo, hi = 0, s.rr
		}
	}
	if s.sc {
		s.wakeAt = s.nextBusy(now)
	} else {
		s.wakeAt = s.scanNextEvent(now)
	}
	// Nothing issued: if some warp was blocked purely by SC ordering,
	// this cycle (and every cycle until the next scan) is an SC stall.
	// Only the op the scheduler would actually have issued (the first
	// blocked warp in scan order) loses its slot; later warps were not
	// schedulable this cycle anyway (Fig 1a).
	first := s.firstBlocked(now)
	if first != nil {
		if !s.idleValid {
			s.idleValid = true
			s.idleFrom = now
			s.idleBlame = s.blame(first)
			s.Tr.StallBegin(now, s.id, first.id, s.idleBlame)
		}
		first.wasStalled = true
	} else {
		s.closeIdle(now)
	}
	s.acctStall(now, first)
	return false
}

// acctIssue charges the open interval to its category and this cycle to
// CatIssued. The SM always re-ticks at now+1 after an issue (wakeAt), so
// the issued cycle can never be stretched by a sleep.
func (s *SM) acctIssue(now timing.Cycle) {
	if now > s.acctUpTo {
		s.st.CycleAccount[s.acctCat] += uint64(now - s.acctUpTo)
	}
	s.st.CycleAccount[stats.CatIssued]++
	s.acctUpTo = now + 1
}

// acctStall re-evaluates the lost-cycle category after a no-issue scan.
// If the category is unchanged the open interval simply keeps growing;
// otherwise the old interval is closed and a new one starts here.
func (s *SM) acctStall(now timing.Cycle, first *warp) {
	cat := s.stallCat(first)
	if cat != s.acctCat {
		if now > s.acctUpTo {
			s.st.CycleAccount[s.acctCat] += uint64(now - s.acctUpTo)
		}
		s.acctUpTo = now
		s.acctCat = cat
	}
}

// stallCat is the attribution decision tree for a cycle with no issue,
// in priority order: machine-wide freezes, then memory-ordering stalls
// (with the RCC renew refinement), then structural stalls, then memory
// waits, then scheduling gaps.
func (s *SM) stallCat(first *warp) stats.CycleCat {
	if s.rollover {
		return stats.CatRollover
	}
	if first != nil {
		blame := s.blame(first)
		if blame == stats.OpLoad && s.renew != nil && s.renew.RenewPending() {
			return stats.CatLeaseRenew
		}
		return stats.SCStallCat(blame)
	}
	if s.pendingSubs > 0 {
		return stats.CatMSHRFull
	}
	if s.fenceStalledN > 0 {
		return stats.CatFence
	}
	if s.barrierN > 0 {
		return stats.CatBarrier
	}
	if s.sawLSUFull || (s.liveN == 0 && s.liveTrk > 0) {
		if s.probe != nil {
			return s.probe.MemWaitCat()
		}
		return stats.CatNoC
	}
	if s.liveN > 0 || s.liveTrk > 0 {
		return stats.CatNoReadyWarp
	}
	return stats.CatDrained
}

// FinishAccounting closes the open interval at the end-of-run cycle so
// sum(CycleAccount) == end × 1 for this SM. Called once by the machine on
// every Run exit path.
func (s *SM) FinishAccounting(end timing.Cycle) {
	if end > s.acctUpTo {
		s.st.CycleAccount[s.acctCat] += uint64(end - s.acctUpTo)
	}
	s.acctUpTo = end
}

// SetEnvProbe attaches the machine-side accounting probe.
func (s *SM) SetEnvProbe(p EnvProbe) { s.probe = p }

// SetRollover is pushed by the machine when a rollover begins or ends;
// the flag feeds stallCat without an interface call per scan.
func (s *SM) SetRollover(on bool) { s.rollover = on }

// ForceWake marks the SM dirty unconditionally so its next Tick rescans
// and re-evaluates the accounting category (rollover start/end must split
// sleep intervals). It also unparks every refused submit: a warp parked
// while the RCC L1 was frozen may have had an MSHR for its line, so after
// the thaw it can merge even while the table is full.
// Otherwise a forced tick on a sleeping SM cannot issue — sleep means the
// scan already proved nothing is issuable and only completions (which set
// dirty themselves) change that.
func (s *SM) ForceWake() {
	s.dirty = true
	s.unparkSubmits()
}

// unparkSubmits returns every refused-submit warp to the scan.
func (s *SM) unparkSubmits() {
	for i, word := range s.subWait {
		s.cand[i] |= word
		s.subWait[i] = 0
	}
}

// unparkLine returns to the scan every refused-submit warp other than self
// whose next line is line: an accepted access gave it an MSHR, which the
// parked warp can now merge into even while the table is full.
func (s *SM) unparkLine(line uint64, self int) {
	for wi, word := range s.subWait {
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if w := s.warps[i]; i != self && s.pool.Line(&w.subIn, int(w.subNext)) == line {
				setBit(s.subWait, i, false)
				setBit(s.cand, i, true)
			}
		}
	}
}

// firstBlocked returns the SC-blocked, not-busy warp the scheduler would
// have tried first this cycle: under GTO the greedy warp, then the lowest
// index; under round-robin the first in [rr, n) ∪ [0, rr) order. Busy
// warps are excluded exactly as the issue scan excludes them before its
// SC check.
func (s *SM) firstBlocked(now timing.Cycle) *warp {
	if !s.sc {
		return nil
	}
	n := len(s.warps)
	if s.gto {
		if bitSet(s.scMask, s.greedy) && s.warps[s.greedy].busyUntil <= now {
			return s.warps[s.greedy]
		}
		for i := nextBit(s.scMask, 0, n); i >= 0; i = nextBit(s.scMask, i+1, n) {
			if w := s.warps[i]; i != s.greedy && w.busyUntil <= now {
				return w
			}
		}
		return nil
	}
	lo, hi := s.rr, n
	for pass := 0; pass < 2; pass++ {
		for i := nextBit(s.scMask, lo, hi); i >= 0; i = nextBit(s.scMask, i+1, hi) {
			if w := s.warps[i]; w.busyUntil <= now {
				return w
			}
		}
		lo, hi = 0, s.rr
	}
	return nil
}

// closeIdle ends the current SC-stall interval, charging its cycles.
func (s *SM) closeIdle(now timing.Cycle) {
	if !s.idleValid {
		return
	}
	s.idleValid = false
	s.Tr.StallEnd(now, s.id, s.idleBlame, uint64(now-s.idleFrom))
	if now > s.idleFrom {
		s.st.SCStallCycles[s.idleBlame] += uint64(now - s.idleFrom)
		s.st.SCStallEvents++
	}
}

// scBlocked reports whether w is blocked purely by SC ordering: its next
// instruction is a memory or scratchpad op behind an outstanding access.
// This is exactly the set of warps tryIssue would fail with stall
// bookkeeping, so the scan skips them wholesale and the stall accounting
// picks its victim from the scMask instead (see firstBlocked).
func (s *SM) scBlocked(w *warp) bool {
	if !s.sc || w.outstanding == 0 || w.subSlot >= 0 || w.done || w.atBarrier {
		return false
	}
	switch w.nextOp {
	case workload.OpLocal, workload.OpLoad, workload.OpStore, workload.OpAtomic:
		return true
	case workload.OpBarrier:
		// The threadblock barrier orders this warp's pre-barrier accesses
		// before every other warp's post-barrier accesses; arriving with a
		// global access in flight would let a sibling's post-barrier store
		// overtake it and break SC across the barrier.
		return true
	}
	return false
}

// tryIssue attempts to make progress on w; it also performs stall
// bookkeeping for warps it finds blocked.
func (s *SM) tryIssue(w *warp, now timing.Cycle) bool {
	if w.atBarrier || w.busyUntil > now {
		return false
	}
	if w.subSlot >= 0 {
		// A partially-submitted memory instruction must drain before
		// anything else (including trace completion).
		return s.drainSubmit(w, now)
	}
	if w.done {
		return false
	}
	in := &w.trace[w.pc]
	switch in.Op {
	case workload.OpCompute:
		w.busyUntil = now + timing.Cycle(in.Lat)
		if s.sc {
			s.noteBusy(now, w.busyUntil)
		}
		s.retire(w)
		return true

	case workload.OpLocal:
		if s.sc && w.outstanding > 0 {
			// Unreachable from the masked scan (scBlocked covers this);
			// kept so a direct call stays correct.
			return false
		}
		lat := uint64(in.Lat)
		if lat == 0 {
			lat = s.cfg.LocalLatency
		}
		w.busyUntil = now + timing.Cycle(lat)
		if s.sc {
			s.noteBusy(now, w.busyUntil)
		}
		s.retire(w)
		return true

	case workload.OpLoad, workload.OpStore, workload.OpAtomic:
		if s.sc && w.outstanding > 0 {
			return false // unreachable from the masked scan, see scBlocked
		}
		if !s.sc && w.outstanding >= woMaxOutstanding {
			s.sawLSUFull = true
			return false // structural (LSU queue), not an SC stall
		}
		s.issueMem(w, in, now)
		return true

	case workload.OpFence:
		return s.issueFence(w, now)

	case workload.OpBarrier:
		if s.sc && w.outstanding > 0 {
			return false // unreachable from the masked scan, see scBlocked
		}
		w.atBarrier = true
		s.barrierN++
		s.st.Instructions++
		w.pc++ // pc advances now; release gates on atBarrier
		s.finishTraceIfNeeded(w)
		s.checkBarrier()
		return true
	}
	return false
}

// retire advances past a non-memory instruction.
func (s *SM) retire(w *warp) {
	s.st.Instructions++
	w.pc++
	s.finishTraceIfNeeded(w)
}

func (s *SM) finishTraceIfNeeded(w *warp) {
	if w.done {
		return
	}
	if w.pc >= len(w.trace) {
		w.done = true
		s.liveN--
		s.checkBarrier()
		return
	}
	w.nextOp = w.trace[w.pc].Op
}

// issueMem starts a warp-level memory instruction: one Request per
// coalesced line.
func (s *SM) issueMem(w *warp, in *workload.Instr, now timing.Cycle) {
	var class stats.OpClass
	switch in.Op {
	case workload.OpLoad:
		class = stats.OpLoad
	case workload.OpStore:
		class = stats.OpStore
	default:
		class = stats.OpAtomic
	}
	s.st.Instructions++
	s.st.MemOps++
	if w.wasStalled {
		s.st.MemOpsStalled++
		w.wasStalled = false
	}
	slot, tr := s.allocTracker()
	tr.w = w
	tr.class = class
	tr.issue = now
	tr.remaining = int(in.N)
	tr.pc = w.pc
	w.outstanding++
	w.outClass[class]++
	w.subSlot = slot
	w.subIn = *in
	w.subNext = 0
	s.pendingSubs++
	w.pc++
	s.drainSubmit(w, now)
	s.finishTraceIfNeeded(w)
}

// drainSubmit pushes pending line accesses into the L1 until it refuses.
func (s *SM) drainSubmit(w *warp, now timing.Cycle) bool {
	tr := s.trackers[w.subSlot]
	progress := false
	for w.subNext < w.subIn.N {
		s.idSeq++
		r := s.allocReq()
		*r = coherence.Request{
			ID:    (s.idSeq-1)*s.idStride + uint64(s.id) + 1,
			Class: tr.class,
			Line:  s.pool.Line(&w.subIn, int(w.subNext)),
			Warp:  w.id,
			Val:   w.subIn.Val,
			Issue: tr.issue,
			Slot:  w.subSlot,
		}
		tracked := s.Sp != nil && s.Sp.Start(r.ID, s.id, w.id, r.Line, spanKind(tr.class), tr.issue)
		if tracked {
			// The span opens at warp-instruction issue; the gap to the
			// submit cycle (MSHR-full retries) telescopes into SegIssue.
			s.Sp.Mark(r.ID, span.SegIssue, now)
			s.Sp.Edge(r.ID, s.barrierDep, "barrier")
		}
		if !s.l1.Access(r, now) {
			// The abort drops the edge with the op; barrierDep stays set
			// so the retry (same ID) records it again.
			s.Sp.Abort(r.ID)
			s.freeReqs = append(s.freeReqs, r)
			s.idSeq--
			break
		}
		if tracked {
			s.barrierDep = 0
		}
		if s.pendingSubs > 1 { // another warp has a submit pending, so may be parked
			s.unparkLine(r.Line, w.id)
		}
		w.subNext++
		progress = true
	}
	if w.subNext == w.subIn.N {
		w.subSlot = -1
		s.pendingSubs--
		setBit(s.subWait, w.id, false)
	} else {
		// Refused: park until the L1 can take the line (see subWait).
		setBit(s.subWait, w.id, true)
		s.reclassify(w)
	}
	return progress
}

func (s *SM) issueFence(w *warp, now timing.Cycle) bool {
	if s.sc {
		// Fences are hardware no-ops under SC (left in the binary only
		// to pin the compiler).
		s.st.Fences++
		w.pc++
		s.st.Instructions++
		s.finishTraceIfNeeded(w)
		return true
	}
	if w.outstanding > 0 {
		// The first failed attempt opens the stall interval; the warp
		// then parks until its last MemDone (see reclassify).
		s.markFenceStall(w, now)
		s.reclassify(w)
		return false
	}
	if ready := s.l1.FenceReadyAt(w.id, now); ready > now {
		s.markFenceStall(w, now)
		return false
	}
	if w.fenceStalled {
		s.st.FenceStallCycles += uint64(now - w.fenceFrom)
		w.fenceStalled = false
		s.fenceStalledN--
	}
	s.l1.FenceComplete(w.id, now)
	s.st.Fences++
	s.st.Instructions++
	w.pc++
	s.finishTraceIfNeeded(w)
	return true
}

// blame picks the stall-blame class from the warp's outstanding ops.
func (s *SM) blame(w *warp) stats.OpClass {
	switch {
	case w.outClass[stats.OpAtomic] > 0:
		return stats.OpAtomic
	case w.outClass[stats.OpStore] > 0:
		return stats.OpStore
	default:
		return stats.OpLoad
	}
}

func (s *SM) markFenceStall(w *warp, now timing.Cycle) {
	if !w.fenceStalled {
		w.fenceStalled = true
		w.fenceFrom = now
		s.fenceStalledN++
	}
}

// checkBarrier releases the block barrier once every live warp arrived.
func (s *SM) checkBarrier() {
	if s.liveN == 0 {
		return
	}
	arrived := 0
	for _, w := range s.warps {
		if w.done {
			continue
		}
		if !w.atBarrier {
			return
		}
		arrived++
	}
	if arrived == 0 {
		return
	}
	for _, w := range s.warps {
		w.atBarrier = false
		s.reclassify(w)
	}
	s.barrierN = 0
	s.dirty = true
	if s.Sp != nil && s.lastSpanDone != 0 {
		s.barrierDep = s.lastSpanDone
	}
}

// spanKind maps the stats op class to the span vocabulary.
func spanKind(c stats.OpClass) span.Kind {
	switch c {
	case stats.OpStore:
		return span.Store
	case stats.OpAtomic:
		return span.Atomic
	}
	return span.Load
}

// MemDone implements coherence.Sink.
func (s *SM) MemDone(r *coherence.Request, now timing.Cycle) {
	slot := r.Slot
	if slot < 0 || int(slot) >= len(s.trackers) {
		return
	}
	tr := s.trackers[slot]
	if s.Sp != nil && s.Sp.Finish(r.ID, span.SegReply, now) {
		s.lastSpanDone = r.ID
	}
	s.freeReqs = append(s.freeReqs, r)
	s.dirty = true
	if s.obs != nil && tr.class != stats.OpStore {
		s.obs.LoadObserved(s.id, tr.w.id, tr.pc, r.Line, r.Data)
	}
	tr.remaining--
	if tr.remaining > 0 {
		return
	}
	lat := uint64(now - tr.issue)
	if lat == 0 {
		lat = 1
	}
	s.st.Latency[tr.class].Add(lat)
	s.st.LatencyHist[tr.class].Add(lat)

	w := tr.w
	w.outstanding--
	w.outClass[tr.class]--
	tr.w = nil
	s.freeSlots = append(s.freeSlots, slot)
	s.liveTrk--
	s.reclassify(w)
}

// Wake implements coherence.Waker: the L1 ticked and may have freed the
// MSHR slot a partially-submitted instruction is waiting on, so the scan
// reruns on the next visited cycle. Refused submits stay parked: the scan
// itself takes them in while the L1 is open. Gated on pendingSubs so an
// idle SM stays asleep: completions arrive via MemDone, which marks dirty
// itself.
func (s *SM) Wake() {
	if s.pendingSubs > 0 {
		s.dirty = true
	}
}

// NextEvent reports the earliest future cycle at which the SM itself could
// make progress without an external completion.
func (s *SM) NextEvent(now timing.Cycle) timing.Cycle {
	if s.dirty {
		return now
	}
	next := s.wakeAt
	if s.pendingSubs > 0 {
		// A partially-submitted instruction keeps the machine visiting
		// every cycle (as the retry loop always did). The visit is O(1):
		// Tick rescans only when dirty or at wakeAt, and even then a
		// refused warp stays out of the scan until the L1 can take its
		// line.
		next = timing.Min(next, now+1)
	}
	return next
}

// noteBusy records a future busyUntil in the wheel (or busyFar when past
// the horizon). Called on every compute/local issue — the only places a
// busyUntil is set.
func (s *SM) noteBusy(now, at timing.Cycle) {
	if shift := now - s.busyBase; shift > 0 {
		if shift < 64 {
			s.busyMask >>= uint(shift)
		} else {
			s.busyMask = 0
		}
		s.busyBase = now
	}
	if d := at - now; d < 64 {
		s.busyMask |= 1 << uint(d)
	} else if at < s.busyFar {
		s.busyFar = at
	}
}

// nextBusy returns the earliest upcoming busyUntil wake (SC's next event:
// completions arrive via dirty, and fences are no-ops). The wheel answer
// may be early — stale bits cost a no-op visit, never a missed event —
// and a drained wheel falls back to a full rebuild scan.
func (s *SM) nextBusy(now timing.Cycle) timing.Cycle {
	if shift := now - s.busyBase; shift > 0 {
		if shift < 64 {
			s.busyMask >>= uint(shift)
		} else {
			s.busyMask = 0
		}
		s.busyBase = now
	}
	if s.busyMask > 1 {
		// Bit 0 is now itself — this scan already ran at now, so the next
		// visit is the next set bit after it.
		return now + timing.Cycle(bits.TrailingZeros64(s.busyMask&^1))
	}
	if s.busyFar != timing.Never {
		// Wheel empty but far wakes were pending (busyFar keeps only their
		// minimum, so once it is due the rest must be re-derived): rebuild
		// from current warp state.
		return s.rebuildBusy(now)
	}
	return timing.Never
}

// rebuildBusy re-derives the wheel and busyFar from every warp that could
// wake the SM (cand ∪ scMask, exactly scanNextEvent's coverage) and
// returns the earliest wake.
func (s *SM) rebuildBusy(now timing.Cycle) timing.Cycle {
	s.busyBase = now
	s.busyMask = 0
	s.busyFar = timing.Never
	next := timing.Never
	n := len(s.warps)
	for wi := range s.cand {
		word := s.cand[wi] | s.scMask[wi]
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i >= n {
				break
			}
			w := s.warps[i]
			if w.busyUntil <= now {
				continue
			}
			s.noteBusy(now, w.busyUntil)
			next = timing.Min(next, w.busyUntil)
		}
	}
	return next
}

func (s *SM) scanNextEvent(now timing.Cycle) timing.Cycle {
	next := timing.Never
	n := len(s.warps)
	// cand ∪ scMask covers every warp the full scan could take an event
	// from: done, barrier-parked and parked warps are in neither mask (a
	// parked warp returns on an external event: a Wake that leaves the L1
	// open, an accepted access to its line, ForceWake or MemDone), and a busy-but-SC-blocked warp (in scMask only) still
	// contributes its busyUntil, because the stall accounting must re-run
	// when it wakes. A no-issue scan leaves no pending submit in cand: it
	// either made progress, which is an issue, or was refused and parked.
	for wi := range s.cand {
		word := s.cand[wi] | s.scMask[wi]
		for word != 0 {
			i := wi<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if i >= n {
				break
			}
			w := s.warps[i]
			if w.busyUntil > now {
				next = timing.Min(next, w.busyUntil)
				continue
			}
			if !s.sc && w.nextOp == workload.OpFence && w.outstanding == 0 {
				next = timing.Min(next, s.l1.FenceReadyAt(w.id, now))
			}
		}
	}
	return next
}
