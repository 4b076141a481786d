package core

import (
	"rccsim/internal/coherence"
	"rccsim/internal/coherence/ctl"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
)

// l1State is an RCC L1 transient state (Fig. 4/5). Stable states V and I
// live in the tag array (valid + unexpired lease = V); transient states
// live in MSHR entries.
type l1State uint8

const (
	// stateIV: load miss outstanding (gets sent, awaiting data).
	stateIV l1State = iota
	// stateII: store/atomic outstanding and no readable copy.
	stateII
	// stateVI: store outstanding but the pre-write copy is still
	// readable by other warps until the ack arrives (GPU-specific
	// optimization of II).
	stateVI
)

// l1Line is the per-line metadata in the RCC L1 tag array: the lease
// expiration granted by the L2 and the cached value.
type l1Line struct {
	Exp uint64
	Val uint64
}

// l1MSHR tracks one line's outstanding transactions.
type l1MSHR struct {
	state    l1State
	getsOut  bool // a GETS is in flight
	renewing bool // the GETS carried an expired copy (renewal opportunity)
	loads    []*coherence.Request
	stores   []*coherence.Request // awaiting ACK (stores) or atomic DATA
	// span is the causal-span ID riding the in-flight GETS (0 when the
	// initiating load is untracked); later tracked loads that coalesce
	// into this entry record a dependency edge on it.
	span uint64
}

func (m *l1MSHR) empty() bool { return len(m.loads) == 0 && len(m.stores) == 0 }

// resetL1MSHR restores a recycled entry, keeping slice capacity.
func resetL1MSHR(m *l1MSHR) {
	loads, stores := m.loads[:0], m.stores[:0]
	*m = l1MSHR{loads: loads, stores: stores}
}

// L1 is the RCC private-cache controller for one SM. It is write-through
// and write-no-allocate; reads are satisfied from leased copies while the
// core's logical time has not passed the lease expiration.
type L1 struct {
	ctl.L1
	clk *Clock

	tags  *mem.Array[l1Line]
	mshrs *mem.MSHRs[l1MSHR]

	lastLivelock timing.Cycle
	frozen       bool // rollover in progress: reject new requests

	// renewsPending counts MSHRs whose in-flight GETS is a renewal
	// opportunity (expired copy attached); the SM's cycle accounting reads
	// it through RenewPending to refine sc-stall-load into lease-renew.
	renewsPending int
}

// NewL1 builds the controller. clk is shared with the SM front end (for
// RCC-WO fences).
func NewL1(cfg config.Config, id int, port coherence.Port, st *stats.Run, clk *Clock) *L1 {
	c := &L1{
		L1:    ctl.NewL1(cfg, id, port, st),
		clk:   clk,
		tags:  ctl.L1Tags[l1Line](cfg),
		mshrs: mem.NewMSHRs(cfg.L1MSHRs, resetL1MSHR),
	}
	c.Reset()
	return c
}

// Reset returns the controller and its clock to the state NewL1 builds,
// keeping the tag array and MSHR table.
func (c *L1) Reset() {
	c.L1.Reset()
	c.clk.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
	c.lastLivelock = 0
	c.frozen = false
	c.renewsPending = 0
}

// Clock exposes the core's logical clock.
func (c *L1) Clock() *Clock { return c.clk }

// RenewPending reports whether any in-flight GETS is a lease-renewal
// opportunity (the SM cycle accounting's lease-renew refinement).
func (c *L1) RenewPending() bool { return c.renewsPending > 0 }

// leaseSlackForTest widens every RCC L1 lease check by the given number of
// logical ticks, letting a core keep reading a copy the protocol says has
// expired. It exists solely so the differential fuzzer's mutation
// self-test can prove it catches a real coherence bug; it is zero in any
// correct build. Set it via WeakenLeaseCheckForTest.
var leaseSlackForTest uint64

// WeakenLeaseCheckForTest installs a deliberate protocol bug: L1 copies
// stay readable for slack extra logical ticks past their lease expiration.
// It returns a func restoring the correct behaviour. Not safe to call
// while machines are running (plain global, read on the L1 hit path).
func WeakenLeaseCheckForTest(slack uint64) (restore func()) {
	prev := leaseSlackForTest
	leaseSlackForTest = slack
	return func() { leaseSlackForTest = prev }
}

// readable reports whether the tag entry holds a valid, unexpired copy at
// the core's current read view.
func (c *L1) readable(e *mem.Entry[l1Line]) bool {
	return e != nil && c.clk.ReadNow() <= e.Meta.Exp+leaseSlackForTest
}

// Access implements coherence.L1.
func (c *L1) Access(r *coherence.Request, now timing.Cycle) bool {
	if c.frozen {
		return false
	}
	switch r.Class {
	case stats.OpLoad:
		return c.load(r, now)
	case stats.OpStore:
		return c.store(r, now)
	default:
		return c.atomic(r, now)
	}
}

func (c *L1) load(r *coherence.Request, now timing.Cycle) bool {
	c.St.L1Loads++
	e := c.tags.Lookup(r.Line)

	if m := c.mshrs.Get(r.Line); m != nil {
		// VI: the pre-write copy remains readable by other warps.
		if m.state == stateVI && c.readable(e) {
			c.St.L1LoadHits++
			if c.Sp != nil {
				c.Sp.Mark(r.ID, span.SegL1, now)
			}
			c.Complete(r, e.Meta.Val, now)
			return true
		}
		m.loads = append(m.loads, r)
		if !m.getsOut {
			if c.Sp.Tracked(r.ID) {
				m.span = r.ID
				c.Sp.Mark(r.ID, span.SegL1, now)
			}
			c.sendGets(r.Line, e, m.span, now)
			m.getsOut = true
			if e != nil && !m.renewing {
				m.renewing = true
				c.renewsPending++
			}
		} else if c.Sp.Tracked(r.ID) {
			// Joined an in-flight GETS: the whole wait is coalesce
			// time, causally blocked on the carrier op.
			c.Sp.Edge(r.ID, m.span, "coalesce")
		}
		return true
	}

	if e != nil {
		if c.readable(e) {
			c.St.L1LoadHits++
			c.tags.Touch(e)
			if c.Sp != nil {
				c.Sp.Mark(r.ID, span.SegL1, now)
			}
			c.Complete(r, e.Meta.Val, now)
			return true
		}
		// V but expired: self-invalidated copy; renewal opportunity.
		c.St.L1LoadExpired++
	} else {
		c.St.L1LoadMisses++
	}

	m := c.mshrs.Alloc(r.Line)
	if m == nil {
		c.St.L1Loads-- // retried later; avoid double counting
		if e == nil {
			c.St.L1LoadMisses--
		} else {
			c.St.L1LoadExpired--
		}
		return false
	}
	if e != nil {
		c.Tr.LeaseExpiredAt(now, c.ID, r.Line, e.Meta.Exp, c.clk.ReadNow())
		c.Tr.L1State(now, c.ID, r.Line, "V_exp->IV")
		c.Heat.Add(r.Line, obs.HeatExpiryWaits, -1)
		m.renewing = true
		c.renewsPending++
	} else {
		c.Tr.L1State(now, c.ID, r.Line, "I->IV")
	}
	m.state = stateIV
	m.getsOut = true
	m.loads = append(m.loads, r)
	if c.Sp.Tracked(r.ID) {
		m.span = r.ID
		c.Sp.Mark(r.ID, span.SegL1, now)
	}
	c.sendGets(r.Line, e, m.span, now)
	return true
}

// sendGets issues a GETS carrying the core's read view and, for the
// renewal mechanism, the expiration of the stale copy if one is present.
// sp is the causal-span ID of the initiating load (0 when untracked).
func (c *L1) sendGets(line uint64, e *mem.Entry[l1Line], sp uint64, now timing.Cycle) {
	var oldExp uint64
	if e != nil {
		oldExp = e.Meta.Exp
	}
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type: coherence.GetS,
		Line: line,
		Src:  c.ID,
		Dst:  c.L2Node(line),
		Now:  c.clk.ReadNow(),
		Exp:  oldExp,
		Span: sp,
	}
	c.Port.Send(msg, now)
}

func (c *L1) store(r *coherence.Request, now timing.Cycle) bool {
	c.St.L1Stores++
	m := c.mshrs.Get(r.Line)
	if m == nil {
		m = c.mshrs.Alloc(r.Line)
		if m == nil {
			c.St.L1Stores--
			return false
		}
		if e := c.tags.Lookup(r.Line); c.readable(e) {
			m.state = stateVI
			c.Tr.L1State(now, c.ID, r.Line, "V->VI")
		} else {
			m.state = stateII
			c.Tr.L1State(now, c.ID, r.Line, "I->II")
		}
	} else if m.state == stateIV {
		m.state = stateII
		c.Tr.L1State(now, c.ID, r.Line, "IV->II")
	}
	m.stores = append(m.stores, r)
	var sp uint64
	if c.Sp.Tracked(r.ID) {
		sp = r.ID
		c.Sp.Mark(r.ID, span.SegL1, now)
	}
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type:  coherence.Write,
		Line:  r.Line,
		Src:   c.ID,
		Dst:   c.L2Node(r.Line),
		ReqID: r.ID,
		Warp:  r.Warp,
		Now:   c.clk.WriteNow(),
		Val:   r.Val,
		Span:  sp,
	}
	c.Port.Send(msg, now)
	return true
}

func (c *L1) atomic(r *coherence.Request, now timing.Cycle) bool {
	m := c.mshrs.Get(r.Line)
	if m == nil {
		m = c.mshrs.Alloc(r.Line)
		if m == nil {
			return false
		}
		if e := c.tags.Lookup(r.Line); c.readable(e) {
			m.state = stateVI
			c.Tr.L1State(now, c.ID, r.Line, "V->VI")
		} else {
			m.state = stateII
			c.Tr.L1State(now, c.ID, r.Line, "I->II")
		}
	} else if m.state == stateIV {
		m.state = stateII
		c.Tr.L1State(now, c.ID, r.Line, "IV->II")
	}
	m.stores = append(m.stores, r)
	var sp uint64
	if c.Sp.Tracked(r.ID) {
		sp = r.ID
		c.Sp.Mark(r.ID, span.SegL1, now)
	}
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type:   coherence.AtomicReq,
		Line:   r.Line,
		Src:    c.ID,
		Dst:    c.L2Node(r.Line),
		ReqID:  r.ID,
		Warp:   r.Warp,
		Now:    c.clk.WriteNow(),
		Val:    r.Val,
		Atomic: true,
		Span:   sp,
	}
	c.Port.Send(msg, now)
	return true
}

// Tick implements coherence.L1: it drains the inbox and advances the
// livelock-avoidance clock tick.
func (c *L1) Tick(now timing.Cycle) bool {
	did := false
	if c.Cfg.RCCLivelockTick > 0 && now-c.lastLivelock >= timing.Cycle(c.Cfg.RCCLivelockTick) {
		c.lastLivelock = now
		c.clk.TickLivelock()
		did = true
	}
	return c.Drain(now, did, c.handle)
}

func (c *L1) handle(m *coherence.Msg, now timing.Cycle) {
	switch m.Type {
	case coherence.Data:
		if m.Atomic {
			c.handleAtomicData(m, now)
		} else {
			c.handleData(m, now)
		}
	case coherence.Renew:
		c.handleRenew(m, now)
	case coherence.Ack:
		c.handleAck(m, now)
	case coherence.FlushReq:
		c.handleFlush(m, now)
	default:
		panic("rcc l1: unexpected message " + m.Type.String())
	}
}

// handleData processes a read DATA response: rule 1 advances the reader's
// logical time past the block version; waiting loads complete; the line is
// cached unless every way is pinned by an active MSHR.
func (c *L1) handleData(m *coherence.Msg, now timing.Cycle) {
	c.clk.AdvanceRead(m.Ver)
	c.Tr.Clock(now, c.ID, c.clk.ReadNow(), c.clk.WriteNow())
	mshr := c.mshrs.Get(m.Line)

	// Install the line (write-allocate on load).
	e, victim, ok := c.tags.Allocate(m.Line, func(v *mem.Entry[l1Line]) bool {
		return c.mshrs.Get(v.Tag) == nil
	})
	if ok {
		if victim.WasValid {
			c.St.L1Evictions++
		}
		e.Meta.Exp = m.Exp
		e.Meta.Val = m.Val
	}

	if mshr == nil {
		return // response raced a rollover flush
	}
	mshr.getsOut = false
	mshr.span = 0
	if mshr.renewing {
		mshr.renewing = false
		c.renewsPending--
	}
	for _, r := range mshr.loads {
		if c.Sp != nil && r.ID != m.Span {
			c.Sp.Mark(r.ID, span.SegCoalesce, now)
		}
		c.Complete(r, m.Val, now)
	}
	mshr.loads = mshr.loads[:0]
	if len(mshr.stores) > 0 {
		// Stores still outstanding: the fresh copy is readable (VI).
		mshr.state = stateVI
		c.Tr.L1State(now, c.ID, m.Line, "IV->VI")
		return
	}
	c.Tr.L1State(now, c.ID, m.Line, "IV->V")
	c.mshrs.Free(m.Line)
}

// handleRenew processes a lease-extension grant: no data, new expiration.
func (c *L1) handleRenew(m *coherence.Msg, now timing.Cycle) {
	c.clk.AdvanceRead(m.Ver)
	c.Tr.Clock(now, c.ID, c.clk.ReadNow(), c.clk.WriteNow())
	e := c.tags.Lookup(m.Line)
	if e != nil {
		e.Meta.Exp = m.Exp
		c.tags.Touch(e)
		c.Tr.L1State(now, c.ID, m.Line, "V_exp->V")
	}
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		return
	}
	mshr.getsOut = false
	mshr.span = 0
	if mshr.renewing {
		mshr.renewing = false
		c.renewsPending--
	}
	if e != nil {
		for _, r := range mshr.loads {
			c.St.L1Renewed++
			if c.Sp != nil && r.ID != m.Span {
				c.Sp.Mark(r.ID, span.SegCoalesce, now)
			}
			c.Complete(r, e.Meta.Val, now)
		}
		mshr.loads = mshr.loads[:0]
	}
	if len(mshr.stores) > 0 {
		mshr.state = stateVI
		return
	}
	if mshr.empty() {
		c.mshrs.Free(m.Line)
	}
}

// handleAck completes one store: the ack carries the logical write time,
// which advances the core's write view (rules 2–3). When the last store
// drains, the block transitions to I — the local copy is stale.
func (c *L1) handleAck(m *coherence.Msg, now timing.Cycle) {
	c.clk.AdvanceWrite(m.Ver)
	c.Tr.Clock(now, c.ID, c.clk.ReadNow(), c.clk.WriteNow())
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		return
	}
	c.finishStore(mshr, m, 0, now)
}

// handleAtomicData completes one atomic: it both writes (advance write
// view to the new version) and reads (the returned old value).
func (c *L1) handleAtomicData(m *coherence.Msg, now timing.Cycle) {
	c.clk.AdvanceWrite(m.Ver)
	c.clk.AdvanceRead(m.Ver)
	c.Tr.Clock(now, c.ID, c.clk.ReadNow(), c.clk.WriteNow())
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		return
	}
	c.finishStore(mshr, m, m.Val, now)
}

func (c *L1) finishStore(mshr *l1MSHR, m *coherence.Msg, data uint64, now timing.Cycle) {
	for i, r := range mshr.stores {
		if r.ID == m.ReqID {
			mshr.stores = append(mshr.stores[:i], mshr.stores[i+1:]...)
			c.Complete(r, data, now)
			break
		}
	}
	if len(mshr.stores) > 0 {
		return
	}
	// Last write drained: the pre-write copy is now unusable.
	if e := c.tags.Lookup(m.Line); e != nil {
		c.tags.Invalidate(e)
	}
	if len(mshr.loads) > 0 {
		if mshr.state == stateVI {
			c.Tr.L1State(now, c.ID, m.Line, "VI->IV")
		} else {
			c.Tr.L1State(now, c.ID, m.Line, "II->IV")
		}
		mshr.state = stateIV
		return
	}
	if mshr.state == stateVI {
		c.Tr.L1State(now, c.ID, m.Line, "VI->I")
	} else {
		c.Tr.L1State(now, c.ID, m.Line, "II->I")
	}
	c.mshrs.Free(m.Line)
}

// handleFlush implements the rollover flush (Sec. III-D) when delivered as
// a message: zero the clock, invalidate every cached line, acknowledge.
func (c *L1) handleFlush(m *coherence.Msg, now timing.Cycle) {
	c.FlushNow(now)
	ack := c.Pool.Get()
	*ack = coherence.Msg{
		Type: coherence.FlushAck,
		Src:  c.ID,
		Dst:  m.Src,
	}
	c.Port.Send(ack, now)
}

// FlushNow zeroes the core's logical clock and invalidates every cached
// line. Outstanding MSHRs remain; their responses will carry epoch-zero
// timestamps. The rollover coordinator calls this directly after draining
// the interconnect (flush/ack traffic is accounted by the coordinator).
func (c *L1) FlushNow(now timing.Cycle) {
	c.clk.Reset()
	c.tags.ForEach(func(e *mem.Entry[l1Line]) { c.tags.Invalidate(e) })
	c.lastLivelock = now
	c.Tr.Rollover(now, trace.RolloverFlush, c.ID, 0)
}

// Freeze stops the controller from accepting new SM requests (rollover).
func (c *L1) Freeze(frozen bool) { c.frozen = frozen }

// NextEvent implements coherence.L1.
func (c *L1) NextEvent(now timing.Cycle) timing.Cycle {
	next := c.L1.NextEvent(now)
	if c.Cfg.RCCLivelockTick > 0 && c.mshrs.Len() > 0 {
		next = timing.Min(next, c.lastLivelock+timing.Cycle(c.Cfg.RCCLivelockTick))
	}
	return next
}

// NextTick returns the earliest cycle at which Tick would do work if
// called. Unlike NextEvent — which only advertises the livelock deadline
// while misses are outstanding, because that is the only time the tick can
// unblock progress — NextTick reports it unconditionally, since Tick fires
// it (mutating the logical clock) whenever the deadline has passed. The
// run loop uses NextTick to decide when to visit the controller and
// NextEvent to decide when to advance time.
func (c *L1) NextTick(now timing.Cycle) timing.Cycle {
	next := c.L1.NextEvent(now)
	if c.Cfg.RCCLivelockTick > 0 {
		next = timing.Min(next, c.lastLivelock+timing.Cycle(c.Cfg.RCCLivelockTick))
	}
	return next
}

// FenceReadyAt implements coherence.L1: RCC fences never wait on physical
// time (the whole point of logical-time coherence).
func (c *L1) FenceReadyAt(warp int, now timing.Cycle) timing.Cycle { return now }

// FenceComplete merges the RCC-WO read/write views (Sec. III-F); in SC
// mode the views are already unified and this is a no-op.
func (c *L1) FenceComplete(warp int, now timing.Cycle) { c.clk.Merge() }

// Drained implements coherence.L1.
func (c *L1) Drained() bool { return c.Idle() && c.mshrs.Len() == 0 }

// Seed installs a leased copy with the given expiration and value —
// scenario setup for tests and walkthroughs, never used by the machine.
func (c *L1) Seed(line, exp, val uint64) {
	e, _, ok := c.tags.Allocate(line, nil)
	if !ok {
		panic("core: L1 seed failed")
	}
	e.Meta = l1Line{Exp: exp, Val: val}
}

// LeaseExp returns the lease expiration of line's copy (0 if absent).
func (c *L1) LeaseExp(line uint64) uint64 {
	if e := c.tags.Lookup(line); e != nil {
		return e.Meta.Exp
	}
	return 0
}
