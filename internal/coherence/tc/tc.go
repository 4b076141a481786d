// Package tc implements the TC-Strong and TC-Weak GPU coherence protocols
// of Singh et al. (HPCA 2013), the paper's timestamp baselines. Both grant
// fixed-duration read leases in *physical* time from a globally
// synchronized counter (the simulation cycle count):
//
//   - TC-Strong (TCS) supports SC: a store to a block with unexpired
//     leases stalls at the L2 until the last lease expires, so that the
//     ack implies global visibility.
//   - TC-Weak (TCW) acks stores immediately but returns the Global Write
//     Completion Time (GWCT); FENCE instructions stall the warp until the
//     maximum GWCT it has accumulated has passed. TCW cannot support SC.
package tc

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

// l1Line is the per-line L1 metadata: physical lease end and value.
type l1Line struct {
	Lease timing.Cycle
	Val   uint64
}

// l1MSHR tracks outstanding transactions for one line.
type l1MSHR struct {
	getsOut bool
	loads   []*coherence.Request
	stores  []*coherence.Request
	// span is the causal-span ID riding the in-flight GETS (0 when the
	// initiating load is untracked); coalescing loads edge on it.
	span uint64
}

// resetL1MSHR restores a recycled entry, keeping slice capacity.
func resetL1MSHR(m *l1MSHR) {
	loads, stores := m.loads[:0], m.stores[:0]
	*m = l1MSHR{loads: loads, stores: stores}
}

// L1 is the TC private-cache controller (write-through, write-no-allocate).
type L1 struct {
	ctl.L1
	weak bool // TCW

	tags  *mem.Array[l1Line]
	mshrs *mem.MSHRs[l1MSHR]

	// TCW: per-warp maximum GWCT, consulted by fences.
	gwct []timing.Cycle
}

// NewL1 builds the controller; weak selects TC-Weak semantics.
func NewL1(cfg config.Config, id int, weak bool, port coherence.Port, st *stats.Run) *L1 {
	c := &L1{
		L1:    ctl.NewL1(cfg, id, port, st),
		weak:  weak,
		tags:  ctl.L1Tags[l1Line](cfg),
		mshrs: mem.NewMSHRs(cfg.L1MSHRs, resetL1MSHR),
		gwct:  make([]timing.Cycle, cfg.WarpsPerSM),
	}
	c.Reset()
	return c
}

// Reset returns the controller to the state NewL1 builds, keeping the tag
// array, MSHR table and GWCT slice.
func (c *L1) Reset() {
	c.L1.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
	clear(c.gwct)
}

func (c *L1) readable(e *mem.Entry[l1Line], now timing.Cycle) bool {
	return e != nil && now <= e.Meta.Lease
}

// Access implements coherence.L1.
func (c *L1) Access(r *coherence.Request, now timing.Cycle) bool {
	switch r.Class {
	case stats.OpLoad:
		return c.load(r, now)
	default:
		return c.write(r, now)
	}
}

func (c *L1) load(r *coherence.Request, now timing.Cycle) bool {
	c.St.L1Loads++
	e := c.tags.Lookup(r.Line)

	if m := c.mshrs.Get(r.Line); m != nil {
		if c.readable(e, now) {
			c.St.L1LoadHits++
			if r.Span != 0 {
				c.Sp.Mark(r.Span, span.SegL1, now)
			}
			c.Complete(r, e.Meta.Val, now)
			return true
		}
		m.loads = append(m.loads, r)
		if !m.getsOut {
			if r.Span != 0 {
				m.span = r.Span
				c.Sp.Mark(r.Span, span.SegL1, now)
			}
			c.sendGets(r.Line, m.span, now)
			m.getsOut = true
		} else if r.Span != 0 {
			c.Sp.Edge(r.Span, m.span, "coalesce")
		}
		return true
	}

	if c.readable(e, now) {
		c.St.L1LoadHits++
		c.tags.Touch(e)
		if r.Span != 0 {
			c.Sp.Mark(r.Span, span.SegL1, now)
		}
		c.Complete(r, e.Meta.Val, now)
		return true
	}
	if e != nil {
		c.St.L1LoadExpired++ // self-invalidated lease; TC has no renewal
	} else {
		c.St.L1LoadMisses++
	}

	m := c.mshrs.Alloc(r.Line)
	if m == nil {
		c.St.L1Loads--
		if e == nil {
			c.St.L1LoadMisses--
		} else {
			c.St.L1LoadExpired--
		}
		return false
	}
	if e != nil {
		c.Tr.LeaseExpiredAt(now, c.ID, r.Line, uint64(e.Meta.Lease), uint64(now))
		c.Heat.Add(r.Line, obs.HeatExpiryWaits, -1)
	}
	m.getsOut = true
	m.loads = append(m.loads, r)
	if r.Span != 0 {
		m.span = r.Span
		c.Sp.Mark(r.Span, span.SegL1, now)
	}
	c.sendGets(r.Line, m.span, now)
	return true
}

func (c *L1) sendGets(line uint64, sp uint64, now timing.Cycle) {
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type: coherence.GetS,
		Line: line,
		Src:  c.ID,
		Dst:  c.L2Node(line),
		Now:  uint64(now),
		Span: sp,
	}
	c.Port.Send(msg, now)
}

func (c *L1) write(r *coherence.Request, now timing.Cycle) bool {
	m := c.mshrs.Get(r.Line)
	if m == nil {
		m = c.mshrs.Alloc(r.Line)
		if m == nil {
			return false
		}
	}
	if r.Class == stats.OpStore {
		c.St.L1Stores++
	}
	m.stores = append(m.stores, r)
	typ := coherence.Write
	atomic := false
	if r.Class == stats.OpAtomic {
		typ = coherence.AtomicReq
		atomic = true
	}
	if r.Span != 0 {
		c.Sp.Mark(r.Span, span.SegL1, now)
	}
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type:   typ,
		Line:   r.Line,
		Src:    c.ID,
		Dst:    c.L2Node(r.Line),
		ReqID:  r.ID,
		Warp:   int(r.Warp),
		Now:    uint64(now),
		Val:    r.Val,
		Atomic: atomic,
		Span:   r.Span,
	}
	c.Port.Send(msg, now)
	return true
}

// Tick implements coherence.L1.
func (c *L1) Tick(now timing.Cycle) bool { return c.Drain(now, false, c.handle) }

func (c *L1) handle(m *coherence.Msg, now timing.Cycle) {
	switch m.Type {
	case coherence.Data:
		if m.Atomic {
			c.finishStore(m, m.Val, now)
			return
		}
		c.handleData(m, now)
	case coherence.Ack:
		c.finishStore(m, 0, now)
	default:
		panic("tc l1: unexpected message " + m.Type.String())
	}
}

func (c *L1) handleData(m *coherence.Msg, now timing.Cycle) {
	e, victim, ok := c.tags.Allocate(m.Line, func(v *mem.Entry[l1Line]) bool {
		return c.mshrs.Get(v.Tag) == nil
	})
	if ok {
		if victim.WasValid {
			c.St.L1Evictions++
		}
		e.Meta.Lease = timing.Cycle(m.Exp)
		e.Meta.Val = m.Val
	}
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		return
	}
	mshr.getsOut = false
	mshr.span = 0
	for _, r := range mshr.loads {
		if r.Span != 0 && r.Span != m.Span {
			c.Sp.Mark(r.Span, span.SegCoalesce, now)
		}
		c.Complete(r, m.Val, now)
	}
	mshr.loads = mshr.loads[:0]
	if len(mshr.stores) == 0 {
		c.mshrs.Free(m.Line)
	}
}

// finishStore completes a store/atomic. In TCW the ack carries the GWCT,
// which accumulates per warp for fences; the local copy is invalidated
// (the write went around it).
func (c *L1) finishStore(m *coherence.Msg, data uint64, now timing.Cycle) {
	if c.weak && m.Exp > uint64(now) {
		w := m.Warp
		if timing.Cycle(m.Exp) > c.gwct[w] {
			c.gwct[w] = timing.Cycle(m.Exp)
		}
	}
	if e := c.tags.Lookup(m.Line); e != nil {
		c.tags.Invalidate(e)
	}
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		return
	}
	for i, r := range mshr.stores {
		if r.ID == m.ReqID {
			mshr.stores = append(mshr.stores[:i], mshr.stores[i+1:]...)
			c.Complete(r, data, now)
			break
		}
	}
	if mshr.empty() {
		c.mshrs.Free(m.Line)
	}
}

func (m *l1MSHR) empty() bool { return len(m.loads) == 0 && len(m.stores) == 0 }

// FenceReadyAt implements coherence.L1: TCW fences wait for the warp's
// maximum GWCT; TCS fences are no-ops (SC cores never reorder).
func (c *L1) FenceReadyAt(warp int, now timing.Cycle) timing.Cycle {
	if !c.weak {
		return now
	}
	return timing.Max(now, c.gwct[warp])
}

// FenceComplete implements coherence.L1.
func (c *L1) FenceComplete(warp int, now timing.Cycle) {
	if c.weak {
		c.gwct[warp] = 0
	}
}

// Drained implements coherence.L1.
func (c *L1) Drained() bool { return c.Idle() && c.mshrs.Len() == 0 }

// Closed implements coherence.L1: the MSHR table is full.
func (c *L1) Closed() bool { return c.mshrs.Full() }

// l2Line is the per-block L2 metadata: the latest granted lease end (the
// "global timestamp"), the value, and the dirty bit.
type l2Line struct {
	GTS   timing.Cycle
	Val   uint64
	Dirty bool
}

// l2MSHR is one outstanding DRAM fill.
type l2MSHR struct {
	readers  []*coherence.Msg
	writeVal uint64
	hasWrite bool
	stalled  []*coherence.Msg // atomics deferred to fill completion
}

// resetL2MSHR restores a recycled entry, keeping slice capacity.
func resetL2MSHR(m *l2MSHR) {
	readers, stalled := m.readers[:0], m.stalled[:0]
	*m = l2MSHR{readers: readers, stalled: stalled}
}

// L2 is one TC shared-cache partition.
type L2 struct {
	ctl.L2
	weak bool

	tags  *mem.Array[l2Line]
	mshrs *mem.MSHRs[l2MSHR]

	// TCS: stores waiting for lease expiry, plus per-line FIFO of
	// requests queued behind a stalled store (prevents starvation and
	// preserves the ordering point). Wake times follow lease expiries,
	// not push order, so stallQ is a Calendar rather than a Pipe.
	stallQ  timing.Calendar[*coherence.Msg]
	blocked map[uint64][]*coherence.Msg
}

// NewL2 builds partition part; weak selects TC-Weak.
func NewL2(cfg config.Config, part int, weak bool, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing) *L2 {
	c := &L2{
		L2:      ctl.NewL2(cfg, part, port, st, dram, backing),
		weak:    weak,
		tags:    ctl.L2Tags[l2Line](cfg),
		mshrs:   mem.NewMSHRs(cfg.L2MSHRs, resetL2MSHR),
		blocked: make(map[uint64][]*coherence.Msg),
	}
	c.Reset()
	return c
}

// Reset returns the partition to the state NewL2 builds, keeping the tag
// array, MSHR table and stall calendar. The DRAM channel and backing
// image are reset by their owner.
func (c *L2) Reset() {
	c.L2.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
	c.stallQ.Reset()
	clear(c.blocked)
}

// Tick implements coherence.L2.
func (c *L2) Tick(now timing.Cycle) bool {
	did := c.DrainDRAM(now, c.fill)
	// Wake stores whose lease wait ended (TCS).
	for {
		m, ok := c.stallQ.PopReady(now)
		if !ok {
			break
		}
		c.wakeStalledStore(m, now)
		did = true
	}
	return c.Serve(now, c.handle) || did
}

// handle processes one request; false means "defer and retry".
func (c *L2) handle(m *coherence.Msg, now timing.Cycle) bool {
	if m.Span != 0 {
		c.Sp.Mark(m.Span, span.SegL2Pipe, now)
	}
	// Requests for a line with a stalled store queue behind it in
	// arrival order: the stalled store is the ordering point.
	if q, ok := c.blocked[m.Line]; ok {
		c.blocked[m.Line] = append(q, m)
		return true
	}
	e := c.tags.Lookup(m.Line)
	if e != nil {
		c.St.L2Accesses++
		switch m.Type {
		case coherence.GetS:
			c.getsHit(m, e, now)
		case coherence.Write, coherence.AtomicReq:
			c.writeHit(m, e, now)
		}
		return true
	}
	return c.miss(m, now)
}

func (c *L2) getsHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	lease := now + timing.Cycle(c.Cfg.TCLease)
	if lease > l.GTS {
		l.GTS = lease
	}
	c.tags.Touch(e)
	c.Heat.Add(m.Line, obs.HeatReads, -1)
	if m.Exp > 0 {
		c.St.ExpiredGets++ // tracked for Fig 6 comparability
	}
	c.Tr.Lease(now, trace.LeaseGrant, c.Part, m.Line, uint64(now), uint64(lease), m.Src)
	if m.Span != 0 {
		// TC leases live in physical cycles, so the grant window is a
		// true sub-span of the run.
		c.Sp.AddChild(m.Span, "lease-grant", now, lease)
		c.Sp.NoteLease(m.Line, m.Span)
	}
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type: coherence.Data,
		Line: m.Line,
		Src:  c.ID,
		Dst:  m.Src,
		Exp:  uint64(lease),
		Val:  l.Val,
		Span: m.Span,
	}
	c.Port.Send(resp, now)
	c.Pool.Put(m)
}

// writeHit performs or stalls a store/atomic on a resident block. TCS
// stalls until the latest lease expires; TCW completes immediately and
// reports the GWCT.
func (c *L2) writeHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	if !c.weak && l.GTS >= now {
		// TC-Strong: wait out the lease.
		c.St.L2StoreStallCycles += uint64(l.GTS + 1 - now)
		c.Heat.Add(m.Line, obs.HeatExpiryWaits, -1)
		c.Tr.L2State(now, c.Part, m.Line, "store-stall", uint64(now), uint64(l.GTS))
		if m.Span != 0 {
			c.Sp.AddChild(m.Span, "expiry-wait", now, l.GTS+1)
			c.Sp.EdgeLease(m.Span, m.Line)
		}
		c.blocked[m.Line] = []*coherence.Msg{}
		c.stallQ.Push(l.GTS+1, m)
		return
	}
	c.performWrite(m, l, now)
	c.Pool.Put(m)
	c.tags.Touch(e)
}

func (c *L2) performWrite(m *coherence.Msg, l *l2Line, now timing.Cycle) {
	c.Heat.Add(m.Line, obs.HeatWrites, m.Src)
	old := l.Val
	if m.Type == coherence.AtomicReq {
		l.Val = old + m.Val
		c.Tr.L2State(now, c.Part, m.Line, "atomic", uint64(now), uint64(l.GTS))
	} else {
		l.Val = m.Val
		c.Tr.L2State(now, c.Part, m.Line, "write", uint64(now), uint64(l.GTS))
	}
	l.Dirty = true
	gwct := uint64(now)
	if uint64(l.GTS) > gwct {
		gwct = uint64(l.GTS)
	}
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.ID,
		Dst:   m.Src,
		ReqID: m.ReqID,
		Warp:  m.Warp,
		Exp:   gwct,
		Span:  m.Span,
	}
	if m.Type == coherence.AtomicReq {
		resp.Type = coherence.Data
		resp.Atomic = true
		resp.Val = old
	}
	c.Port.Send(resp, now)
}

// wakeStalledStore completes a TCS store whose lease wait ended, then
// replays everything that queued behind it.
func (c *L2) wakeStalledStore(m *coherence.Msg, now timing.Cycle) {
	if m.Span != 0 {
		// The lease wait the store just finished is protocol blame.
		c.Sp.Mark(m.Span, span.SegProto, now)
	}
	queued := c.blocked[m.Line]
	delete(c.blocked, m.Line)
	e := c.tags.Lookup(m.Line)
	if e == nil {
		// Evicted while stalled (cannot happen: unexpired blocks are
		// pinned); be safe and reprocess from scratch.
		if !c.handle(m, now) {
			c.Defer(m)
		}
	} else {
		c.St.L2Accesses++
		c.performWrite(m, &e.Meta, now)
		c.Pool.Put(m)
		c.tags.Touch(e)
	}
	for _, q := range queued {
		if !c.handle(q, now) {
			c.Defer(q)
		}
	}
}

func (c *L2) miss(m *coherence.Msg, now timing.Cycle) bool {
	c.St.L2Accesses++
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		c.St.L2Misses++
		mshr = c.mshrs.Alloc(m.Line)
		if mshr == nil {
			c.St.L2Accesses--
			c.St.L2Misses--
			return false
		}
		c.DRAM.Submit(mem.DRAMReq{Line: m.Line, ID: m.Line, Span: m.Span}, now)
	}
	switch m.Type {
	case coherence.GetS:
		mshr.readers = append(mshr.readers, m)
	case coherence.Write:
		// No outstanding leases for an absent block: the write is
		// globally visible once ordered here; ack immediately.
		mshr.writeVal = m.Val
		mshr.hasWrite = true
		ack := c.Pool.Get()
		*ack = coherence.Msg{
			Type:  coherence.Ack,
			Line:  m.Line,
			Src:   c.ID,
			Dst:   m.Src,
			ReqID: m.ReqID,
			Warp:  m.Warp,
			Exp:   uint64(now),
			Span:  m.Span,
		}
		c.Port.Send(ack, now)
		c.Pool.Put(m)
	case coherence.AtomicReq:
		mshr.stalled = append(mshr.stalled, m)
	}
	return true
}

// fill installs a DRAM fetch. Eviction must pick an expired victim: TC
// pins unexpired blocks (the paper notes Singh et al. hold them in MSHRs);
// if none is available the fill retries, modeling that cost.
func (c *L2) fill(line uint64, now timing.Cycle) {
	mshr := c.mshrs.Get(line)
	if mshr == nil {
		return
	}
	e, victim, ok := c.tags.Allocate(line, func(v *mem.Entry[l2Line]) bool {
		return v.Meta.GTS < now && c.mshrs.Get(v.Tag) == nil
	})
	if !ok {
		// All ways hold live leases; retry when the earliest expires.
		c.DRAM.Submit(mem.DRAMReq{Line: line, ID: line}, now)
		return
	}
	if victim.WasValid {
		c.St.L2Evictions++
		if victim.Meta.Dirty {
			c.Backing.Write(victim.Tag, victim.Meta.Val)
			c.DRAM.Submit(mem.DRAMReq{Line: victim.Tag, Write: true, ID: victim.Tag}, now)
		}
	}
	l := &e.Meta
	l.Val = c.Backing.Read(line)
	if mshr.hasWrite {
		l.Val = mshr.writeVal
		l.Dirty = true
	}
	if len(mshr.readers) > 0 {
		lease := now + timing.Cycle(c.Cfg.TCLease)
		l.GTS = lease
		for _, r := range mshr.readers {
			c.Tr.Lease(now, trace.LeaseGrant, c.Part, line, uint64(now), uint64(lease), r.Src)
			if r.Span != 0 {
				c.Sp.Mark(r.Span, span.SegDRAM, now)
				c.Sp.AddChild(r.Span, "lease-grant", now, lease)
				c.Sp.NoteLease(line, r.Span)
			}
			resp := c.Pool.Get()
			*resp = coherence.Msg{
				Type: coherence.Data,
				Line: line,
				Src:  c.ID,
				Dst:  r.Src,
				Exp:  uint64(lease),
				Val:  l.Val,
				Span: r.Span,
			}
			c.Port.Send(resp, now)
			c.Pool.Put(r)
		}
		mshr.readers = mshr.readers[:0]
	}
	stalled := mshr.stalled
	c.mshrs.Free(line)
	for _, s := range stalled {
		if s.Span != 0 {
			c.Sp.Mark(s.Span, span.SegProto, now)
		}
		if !c.handle(s, now) {
			c.Defer(s)
		}
	}
}

// Peek implements coherence.L2.
func (c *L2) Peek(line uint64) (uint64, bool) {
	if e := c.tags.Lookup(line); e != nil {
		return e.Meta.Val, true
	}
	return 0, false
}

// NextEvent implements coherence.L2.
func (c *L2) NextEvent(now timing.Cycle) timing.Cycle {
	return timing.Min(c.L2.NextEvent(now), c.stallQ.NextReady())
}

// Drained implements coherence.L2.
func (c *L2) Drained() bool {
	return c.Idle() && c.stallQ.Len() == 0 && len(c.blocked) == 0 && c.mshrs.Len() == 0
}
