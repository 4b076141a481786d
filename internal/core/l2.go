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

// l2Line is the per-block L2 metadata of Table II plus the lease
// predictor's current prediction and the write-back dirty bit.
type l2Line struct {
	Ver   uint64
	Exp   uint64
	Val   uint64
	Dirty bool
	Pred  uint64
}

// l2State is an L2 transient state (Fig. 5 right).
type l2State uint8

const (
	// l2IV: a miss is being fetched from DRAM; reads and writes merge
	// into the MSHR.
	l2IV l2State = iota
	// l2IAV: an atomic hit an invalid block; all other requests for the
	// line stall until the atomic completes (Sec. III-C).
	l2IAV
)

// l2MSHR is one outstanding DRAM fill with the paper's lastrd/lastwr
// write-merging metadata (Sec. III-D).
type l2MSHR struct {
	state    l2State
	lastRd   uint64
	lastWr   uint64
	hasRead  bool
	hasWrite bool
	writeVal uint64
	readers  []*coherence.Msg // GETS awaiting the fill
	atomic   *coherence.Msg   // the IAV atomic
	stalled  []*coherence.Msg // requests deferred until the fill completes
}

// resetL2MSHR restores a recycled entry, keeping slice capacity.
func resetL2MSHR(m *l2MSHR) {
	readers, stalled := m.readers[:0], m.stalled[:0]
	*m = l2MSHR{readers: readers, stalled: stalled}
}

// L2 is one RCC shared-cache partition: the ordering point for its slice
// of the address space. It is write-back and write-allocate, tracks ver
// and exp per block, carries the partition's memory time mnow, and hosts
// the per-block lease predictor.
type L2 struct {
	ctl.L2

	tags  *mem.Array[l2Line]
	mshrs *mem.MSHRs[l2MSHR]
	mnow  uint64

	frozen      bool
	rolloverReq func() // machine-level rollover coordinator hook
	tsGuard     uint64 // trigger threshold: TSMax minus headroom
}

// NewL2 builds partition part. rollover is invoked (once per trigger) when
// a timestamp is about to exceed the configured maximum.
func NewL2(cfg config.Config, part int, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing, rollover func()) *L2 {
	c := &L2{
		L2:          ctl.NewL2(cfg, part, port, st, dram, backing),
		tags:        ctl.L2Tags[l2Line](cfg),
		mshrs:       mem.NewMSHRs(cfg.L2MSHRs, resetL2MSHR),
		rolloverReq: rollover,
		tsGuard:     cfg.RCCTSMax - 2*cfg.RCCMaxLease - 2,
	}
	c.Reset()
	return c
}

// Reset returns the partition to the state NewL2 builds, keeping the tag
// array and MSHR table. The DRAM channel and backing image are reset by
// their owner.
func (c *L2) Reset() {
	c.L2.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
	c.mnow = 0
	c.frozen = false
}

// MNow returns the partition's memory time (exported for tests and the
// rollover coordinator).
func (c *L2) MNow() uint64 { return c.mnow }

// Tick implements coherence.L2: DRAM completions fill, then, unless a
// rollover froze the partition, one request is serviced.
func (c *L2) Tick(now timing.Cycle) bool {
	did := c.DrainDRAM(now, c.fill)
	if c.frozen {
		return did
	}
	return c.Serve(now, c.handle) || did
}

// lease returns the lease duration to grant for entry e.
func (c *L2) lease(e *l2Line) uint64 {
	if !c.Cfg.RCCPredictor {
		return c.Cfg.RCCFixedLease
	}
	if e.Pred == 0 {
		return c.Cfg.RCCMaxLease
	}
	return e.Pred
}

// checkRollover requests a machine-wide timestamp rollover if processing a
// message with timestamps near the limit could overflow, and reports
// whether the message must wait.
func (c *L2) checkRollover(m *coherence.Msg) bool {
	hi := maxU(maxU(m.Now, m.Exp), maxU(c.mnow, 0))
	if hi >= c.tsGuard {
		if c.rolloverReq != nil {
			c.rolloverReq()
		}
		return true
	}
	return false
}

// handle processes one request; it returns false if the request cannot be
// accepted yet (MSHR full, IAV stall, or pending rollover) and must be
// deferred.
func (c *L2) handle(m *coherence.Msg, now timing.Cycle) bool {
	if c.checkRollover(m) {
		return false
	}
	if m.Span != 0 {
		// Bank pipeline plus any defer/replay wait telescopes into the
		// L2-pipe segment; a repeated mark just extends it.
		c.Sp.Mark(m.Span, span.SegL2Pipe, now)
	}
	e := c.tags.Lookup(m.Line)
	if e != nil {
		if c.timestampsHigh(&e.Meta) {
			if c.rolloverReq != nil {
				c.rolloverReq()
			}
			return false
		}
		c.St.L2Accesses++
		switch m.Type {
		case coherence.GetS:
			c.getsHit(m, e, now)
		case coherence.Write:
			c.writeHit(m, e, now)
		case coherence.AtomicReq:
			c.atomicHit(m, e, now)
		default:
			panic("rcc l2: unexpected message " + m.Type.String())
		}
		return true
	}
	return c.miss(m, now)
}

func (c *L2) timestampsHigh(l *l2Line) bool {
	return maxU(l.Ver, l.Exp) >= c.tsGuard
}

// getsHit implements the V-state GETS row of Fig. 5: extend the block's
// latest lease, then either renew (no data) or send the full line.
func (c *L2) getsHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	lease := c.lease(l)
	l.Exp = maxU(l.Exp, maxU(l.Ver+lease, m.Now+lease))
	c.tags.Touch(e)
	c.Heat.Add(m.Line, obs.HeatReads, -1)

	if m.Exp > 0 {
		c.St.ExpiredGets++
		if m.Exp > l.Ver {
			c.St.ExpiredGetsRenewable++
		}
	}
	if c.Cfg.RCCRenew && m.Exp > l.Ver {
		// The requester's lease outlived the last write: its copy is
		// current and only the expiration needs refreshing.
		if c.Cfg.RCCPredictor {
			grown := c.lease(l) * 2
			if grown > c.Cfg.RCCMaxLease {
				grown = c.Cfg.RCCMaxLease
			}
			l.Pred = grown
			c.St.PredictorGrows++
		}
		c.Heat.Add(m.Line, obs.HeatRenewals, -1)
		c.Tr.Lease(now, trace.LeaseRenew, c.Part, m.Line, l.Ver, l.Exp, m.Src)
		if m.Span != 0 {
			c.Sp.AddChild(m.Span, "lease-renew", now, now)
			c.Sp.NoteLease(m.Line, m.Span)
		}
		resp := c.Pool.Get()
		*resp = coherence.Msg{
			Type: coherence.Renew,
			Line: m.Line,
			Src:  c.ID,
			Dst:  m.Src,
			Exp:  l.Exp,
			Ver:  l.Ver,
			Span: m.Span,
		}
		c.Port.Send(resp, now)
		c.Pool.Put(m)
		return
	}
	c.Tr.Lease(now, trace.LeaseGrant, c.Part, m.Line, l.Ver, l.Exp, m.Src)
	if m.Span != 0 {
		c.Sp.AddChild(m.Span, "lease-grant", now, now)
		c.Sp.NoteLease(m.Line, m.Span)
	}
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type: coherence.Data,
		Line: m.Line,
		Src:  c.ID,
		Dst:  m.Src,
		Exp:  l.Exp,
		Ver:  l.Ver,
		Val:  l.Val,
		Span: m.Span,
	}
	c.Port.Send(resp, now)
	c.Pool.Put(m)
}

// writeHit implements the V-state WRITE row: rules 2–3 advance the version
// past the writer's clock and every outstanding lease; the ack carries the
// logical write time and the store never stalls.
func (c *L2) writeHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	oldVer := l.Ver
	l.Ver = maxU(m.Now, maxU(l.Ver, l.Exp+1))
	l.Val = m.Val
	l.Dirty = true
	c.Heat.Add(m.Line, obs.HeatWrites, m.Src)
	if l.Ver != oldVer {
		c.Heat.Add(m.Line, obs.HeatVerBumps, -1)
	}
	if c.Cfg.RCCPredictor && l.Pred != c.Cfg.RCCMinLease {
		l.Pred = c.Cfg.RCCMinLease
		c.St.PredictorDrops++
	}
	c.tags.Touch(e)
	c.Tr.L2State(now, c.Part, m.Line, "write", l.Ver, l.Exp)
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.ID,
		Dst:   m.Src,
		ReqID: m.ReqID,
		Warp:  m.Warp,
		Ver:   l.Ver,
		Span:  m.Span,
	}
	c.Port.Send(resp, now)
	c.Pool.Put(m)
}

// atomicHit performs the read-modify-write at the L2 (fetch-and-add) and
// returns the old value along with the new version.
func (c *L2) atomicHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	old := l.Val
	oldVer := l.Ver
	l.Ver = maxU(m.Now, maxU(l.Ver, l.Exp+1))
	l.Val = old + m.Val
	l.Dirty = true
	c.Heat.Add(m.Line, obs.HeatWrites, m.Src)
	if l.Ver != oldVer {
		c.Heat.Add(m.Line, obs.HeatVerBumps, -1)
	}
	if c.Cfg.RCCPredictor && l.Pred != c.Cfg.RCCMinLease {
		l.Pred = c.Cfg.RCCMinLease
		c.St.PredictorDrops++
	}
	c.tags.Touch(e)
	c.Tr.L2State(now, c.Part, m.Line, "atomic", l.Ver, l.Exp)
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type:   coherence.Data,
		Line:   m.Line,
		Src:    c.ID,
		Dst:    m.Src,
		ReqID:  m.ReqID,
		Warp:   m.Warp,
		Exp:    l.Ver,
		Ver:    l.Ver,
		Val:    old,
		Atomic: true,
		Span:   m.Span,
	}
	c.Port.Send(resp, now)
	c.Pool.Put(m)
}

// miss handles requests for absent blocks: I-state and transient rows of
// Fig. 5.
func (c *L2) miss(m *coherence.Msg, now timing.Cycle) bool {
	c.St.L2Accesses++
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		c.St.L2Misses++
		mshr = c.mshrs.Alloc(m.Line)
		if mshr == nil {
			c.St.L2Accesses--
			c.St.L2Misses--
			return false // MSHR full; defer
		}
		switch m.Type {
		case coherence.GetS:
			mshr.state = l2IV
			mshr.hasRead = true
			mshr.lastRd = m.Now
			mshr.readers = append(mshr.readers, m)
		case coherence.Write:
			mshr.state = l2IV
			mshr.hasWrite = true
			mshr.lastWr = m.Now
			mshr.writeVal = m.Val
			c.ackWrite(m, now)
			c.Pool.Put(m)
		case coherence.AtomicReq:
			mshr.state = l2IAV
			mshr.lastWr = m.Now
			mshr.atomic = m
		}
		c.DRAM.Submit(mem.DRAMReq{Line: m.Line, ID: m.Line, Span: m.Span}, now)
		return true
	}

	if mshr.state == l2IAV {
		// IAV stalls all further requests for the line.
		mshr.stalled = append(mshr.stalled, m)
		return true
	}

	switch m.Type {
	case coherence.GetS:
		mshr.hasRead = true
		mshr.lastRd = maxU(mshr.lastRd, m.Now)
		mshr.readers = append(mshr.readers, m)
	case coherence.Write:
		// Write merging: the newest write (by logical time, then
		// arrival) determines the data; every write is acked with the
		// eventual version lower bound.
		if !mshr.hasWrite || m.Now >= mshr.lastWr {
			mshr.writeVal = m.Val
			mshr.lastWr = maxU(mshr.lastWr, m.Now)
		}
		mshr.hasWrite = true
		c.ackWrite(m, now)
		c.Pool.Put(m)
	case coherence.AtomicReq:
		// Atomics cannot merge; they stall until the block is V.
		mshr.stalled = append(mshr.stalled, m)
	}
	return true
}

// ackWrite acknowledges a write that missed: its version is known before
// the DRAM fill returns (Sec. III-D), so the store does not wait.
func (c *L2) ackWrite(m *coherence.Msg, now timing.Cycle) {
	mshr := c.mshrs.Get(m.Line)
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.ID,
		Dst:   m.Src,
		ReqID: m.ReqID,
		Warp:  m.Warp,
		Ver:   maxU(mshr.lastWr, c.mnow),
		Span:  m.Span,
	}
	c.Port.Send(resp, now)
}

// fill completes a DRAM fetch: install the block with ver/exp seeded from
// mnow, apply merged writes, satisfy waiting readers, then replay stalled
// requests.
func (c *L2) fill(line uint64, now timing.Cycle) {
	mshr := c.mshrs.Get(line)
	if mshr == nil {
		return // rollover flushed the MSHR
	}

	e, victim, ok := c.tags.Allocate(line, func(v *mem.Entry[l2Line]) bool {
		return c.mshrs.Get(v.Tag) == nil
	})
	if !ok {
		// Pathological: every way mid-fill. Retry next cycle by
		// resubmitting a zero-latency fill.
		c.DRAM.Submit(mem.DRAMReq{Line: line, ID: line}, now)
		return
	}
	if victim.WasValid {
		c.evict(victim, now)
	}

	l := &e.Meta
	l.Val = c.Backing.Read(line)
	l.Exp = c.mnow
	l.Ver = c.mnow
	l.Pred = c.Cfg.RCCMaxLease

	if mshr.state == l2IAV {
		m := mshr.atomic
		old := l.Val
		l.Ver = maxU(mshr.lastWr, c.mnow)
		l.Exp = maxU(l.Exp, l.Ver)
		l.Val = old + m.Val
		l.Dirty = true
		l.Pred = c.Cfg.RCCMinLease
		if m.Span != 0 {
			c.Sp.Mark(m.Span, span.SegDRAM, now)
		}
		resp := c.Pool.Get()
		*resp = coherence.Msg{
			Type:   coherence.Data,
			Line:   line,
			Src:    c.ID,
			Dst:    m.Src,
			ReqID:  m.ReqID,
			Warp:   m.Warp,
			Exp:    l.Ver,
			Ver:    l.Ver,
			Val:    old,
			Atomic: true,
			Span:   m.Span,
		}
		c.Port.Send(resp, now)
		c.Pool.Put(m)
		mshr.atomic = nil
	} else {
		if mshr.hasWrite {
			l.Ver = maxU(mshr.lastWr, c.mnow)
			l.Val = mshr.writeVal
			l.Dirty = true
			l.Pred = c.Cfg.RCCMinLease
		}
		if mshr.hasRead {
			lease := c.lease(l)
			l.Exp = maxU(l.Exp, maxU(l.Ver+lease, mshr.lastRd+lease))
			for _, r := range mshr.readers {
				c.Tr.Lease(now, trace.LeaseGrant, c.Part, line, l.Ver, l.Exp, r.Src)
				if r.Span != 0 {
					c.Sp.Mark(r.Span, span.SegDRAM, now)
					c.Sp.AddChild(r.Span, "lease-grant", now, now)
					c.Sp.NoteLease(line, r.Span)
				}
				resp := c.Pool.Get()
				*resp = coherence.Msg{
					Type: coherence.Data,
					Line: line,
					Src:  c.ID,
					Dst:  r.Src,
					Exp:  l.Exp,
					Ver:  l.Ver,
					Val:  l.Val,
					Span: r.Span,
				}
				c.Port.Send(resp, now)
				c.Pool.Put(r)
			}
			mshr.readers = mshr.readers[:0]
		}
	}

	c.Tr.L2State(now, c.Part, line, "fill", l.Ver, l.Exp)
	stalled := mshr.stalled
	c.mshrs.Free(line)
	// Replay stalled requests in arrival order (they hit in V now).
	for _, s := range stalled {
		if s.Span != 0 {
			// The IAV hold was a protocol stall, not pipe occupancy.
			c.Sp.Mark(s.Span, span.SegProto, now)
		}
		if !c.handle(s, now) {
			c.Defer(s)
		}
	}
}

// evict implements the V-state evict row: fold the block's timestamps into
// the partition's memory time and write back dirty data.
func (c *L2) evict(v mem.Victim[l2Line], now timing.Cycle) {
	c.St.L2Evictions++
	c.mnow = maxU(c.mnow, maxU(v.Meta.Exp, v.Meta.Ver))
	c.Tr.L2State(now, c.Part, v.Tag, "evict", v.Meta.Ver, v.Meta.Exp)
	if v.Meta.Dirty {
		c.Backing.Write(v.Tag, v.Meta.Val)
		c.DRAM.Submit(mem.DRAMReq{Line: v.Tag, Write: true, ID: v.Tag}, now)
	}
}

// Freeze stalls (or resumes) request processing during rollover.
func (c *L2) Freeze(frozen bool) { c.frozen = frozen }

// ResetTimestamps implements the partition's part of rollover (Sec.
// III-D): zero mnow, every block's ver/exp, every MSHR's lastrd/lastwr,
// and the timestamps of queued requests. now is the cycle at which the
// coordinator runs the rollover; requeued pipeline messages become ready
// immediately after it.
func (c *L2) ResetTimestamps(now timing.Cycle) {
	c.mnow = 0
	c.tags.ForEach(func(e *mem.Entry[l2Line]) {
		e.Meta.Ver = 0
		e.Meta.Exp = 0
	})
	c.mshrs.ForEach(func(_ uint64, m *l2MSHR) {
		m.lastRd = 0
		m.lastWr = 0
		for _, s := range m.stalled {
			s.Now, s.Exp, s.Ver = 0, 0, 0
		}
		for _, r := range m.readers {
			r.Now, r.Exp, r.Ver = 0, 0, 0
		}
		if m.atomic != nil {
			m.atomic.Now, m.atomic.Exp, m.atomic.Ver = 0, 0, 0
		}
	})
	c.Requeue(now, func(m *coherence.Msg) { m.Now, m.Exp, m.Ver = 0, 0, 0 })
}

// NextEvent implements coherence.L2.
func (c *L2) NextEvent(now timing.Cycle) timing.Cycle {
	if c.frozen {
		return c.DRAM.NextEvent()
	}
	return c.L2.NextEvent(now)
}

// Drained implements coherence.L2.
func (c *L2) Drained() bool { return c.Idle() && c.mshrs.Len() == 0 }

// BlockMeta is the externally visible per-block L2 metadata (inspection
// and example/walkthrough tooling).
type BlockMeta struct {
	Ver, Exp, Val uint64
	Dirty         bool
	Pred          uint64
}

// Peek implements coherence.L2.
func (c *L2) Peek(line uint64) (uint64, bool) {
	if e := c.tags.Lookup(line); e != nil {
		return e.Meta.Val, true
	}
	return 0, false
}

// Meta returns the metadata of line, or the zero value if absent.
func (c *L2) Meta(line uint64) BlockMeta {
	e := c.tags.Lookup(line)
	if e == nil {
		return BlockMeta{}
	}
	return BlockMeta{Ver: e.Meta.Ver, Exp: e.Meta.Exp, Val: e.Meta.Val, Dirty: e.Meta.Dirty, Pred: e.Meta.Pred}
}

// Seed installs a block with the given version, expiration and value —
// scenario setup for tests and walkthroughs, never used by the machine.
func (c *L2) Seed(line, ver, exp, val uint64) {
	e, _, ok := c.tags.Allocate(line, nil)
	if !ok {
		panic("core: L2 seed failed")
	}
	e.Meta = l2Line{Ver: ver, Exp: exp, Val: val, Pred: c.Cfg.RCCFixedLease}
}
