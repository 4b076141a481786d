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
	cfg  config.Config
	id   int
	weak bool // TCW
	port coherence.Port
	sink coherence.Sink
	st   *stats.Run
	tr   *trace.Bus

	tags   *mem.Array[l1Line]
	mshrs  *mem.MSHRs[l1MSHR]
	inbox  []*coherence.Msg
	inHead int // next inbox element to drain (the slice is reused, not re-sliced)
	pool   *coherence.MsgPool

	// TCW: per-warp maximum GWCT, consulted by fences.
	gwct []timing.Cycle

	// wake, when non-nil, notifies the SM that this Tick may have freed
	// resources it is polling for (an MSHR slot); set from SetSink when the
	// sink implements coherence.Waker.
	wake func()

	heat *obs.Heat // per-line contention sampling (nil disables)

	sp *span.Recorder // causal spans for sampled requests (nil disables)
}

// NewL1 builds the controller; weak selects TC-Weak semantics.
func NewL1(cfg config.Config, id int, weak bool, port coherence.Port, sink coherence.Sink, st *stats.Run) *L1 {
	return &L1{
		cfg:  cfg,
		id:   id,
		weak: weak,
		port: port,
		sink: sink,
		st:   st,
		tags: mem.NewArray[l1Line](cfg.L1Sets, cfg.L1Ways, func(l uint64) int {
			return coherence.L1SetIndex(l, cfg.L1Sets)
		}),
		mshrs: mem.NewMSHRs(cfg.L1MSHRs, resetL1MSHR),
		gwct:  make([]timing.Cycle, cfg.WarpsPerSM),
	}
}

// SetTracer attaches the event bus (nil disables tracing).
func (c *L1) SetTracer(tr *trace.Bus) { c.tr = tr }

// SetMsgPool attaches the machine's message free list (nil keeps plain
// allocation).
func (c *L1) SetMsgPool(p *coherence.MsgPool) { c.pool = p }

// SetHeat attaches the contention sketch (nil disables sampling).
func (c *L1) SetHeat(h *obs.Heat) { c.heat = h }

// SetSpans attaches the causal-span recorder (nil disables).
func (c *L1) SetSpans(sp *span.Recorder) { c.sp = sp }

func (c *L1) l2node(line uint64) int {
	return coherence.L2NodeID(coherence.PartitionOf(line, c.cfg.L2Partitions), c.cfg.NumSMs)
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
	c.st.L1Loads++
	e := c.tags.Lookup(r.Line)

	if m := c.mshrs.Get(r.Line); m != nil {
		if c.readable(e, now) {
			c.st.L1LoadHits++
			if c.sp != nil {
				c.sp.Mark(r.ID, span.SegL1, now)
			}
			r.Data = e.Meta.Val
			c.sink.MemDone(r, now)
			return true
		}
		m.loads = append(m.loads, r)
		if !m.getsOut {
			if c.sp.Tracked(r.ID) {
				m.span = r.ID
				c.sp.Mark(r.ID, span.SegL1, now)
			}
			c.sendGets(r.Line, m.span, now)
			m.getsOut = true
		} else if c.sp.Tracked(r.ID) {
			c.sp.Edge(r.ID, m.span, "coalesce")
		}
		return true
	}

	if c.readable(e, now) {
		c.st.L1LoadHits++
		c.tags.Touch(e)
		if c.sp != nil {
			c.sp.Mark(r.ID, span.SegL1, now)
		}
		r.Data = e.Meta.Val
		c.sink.MemDone(r, now)
		return true
	}
	if e != nil {
		c.st.L1LoadExpired++ // self-invalidated lease; TC has no renewal
	} else {
		c.st.L1LoadMisses++
	}

	m := c.mshrs.Alloc(r.Line)
	if m == nil {
		c.st.L1Loads--
		if e == nil {
			c.st.L1LoadMisses--
		} else {
			c.st.L1LoadExpired--
		}
		return false
	}
	if e != nil {
		c.tr.LeaseExpiredAt(now, c.id, r.Line, uint64(e.Meta.Lease), uint64(now))
		c.heat.Add(r.Line, obs.HeatExpiryWaits, -1)
	}
	m.getsOut = true
	m.loads = append(m.loads, r)
	if c.sp.Tracked(r.ID) {
		m.span = r.ID
		c.sp.Mark(r.ID, span.SegL1, now)
	}
	c.sendGets(r.Line, m.span, now)
	return true
}

func (c *L1) sendGets(line uint64, sp uint64, now timing.Cycle) {
	msg := c.pool.Get()
	*msg = coherence.Msg{
		Type: coherence.GetS,
		Line: line,
		Src:  c.id,
		Dst:  c.l2node(line),
		Now:  uint64(now),
		Span: sp,
	}
	c.port.Send(msg, now)
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
		c.st.L1Stores++
	}
	m.stores = append(m.stores, r)
	typ := coherence.Write
	atomic := false
	if r.Class == stats.OpAtomic {
		typ = coherence.AtomicReq
		atomic = true
	}
	var sp uint64
	if c.sp.Tracked(r.ID) {
		sp = r.ID
		c.sp.Mark(r.ID, span.SegL1, now)
	}
	msg := c.pool.Get()
	*msg = coherence.Msg{
		Type:   typ,
		Line:   r.Line,
		Src:    c.id,
		Dst:    c.l2node(r.Line),
		ReqID:  r.ID,
		Warp:   r.Warp,
		Now:    uint64(now),
		Val:    r.Val,
		Atomic: atomic,
		Span:   sp,
	}
	c.port.Send(msg, now)
	return true
}

// Deliver implements coherence.L1. The delivery timestamp is unused: the
// inbox is drained in full on the next Tick.
func (c *L1) Deliver(m *coherence.Msg, at timing.Cycle) { c.inbox = append(c.inbox, m) }

// Tick implements coherence.L1.
func (c *L1) Tick(now timing.Cycle) bool {
	did := false
	for c.inHead < len(c.inbox) {
		m := c.inbox[c.inHead]
		c.inbox[c.inHead] = nil
		c.inHead++
		c.handle(m, now)
		c.pool.Put(m)
		did = true
	}
	c.inbox = c.inbox[:0]
	c.inHead = 0
	if did && c.wake != nil {
		c.wake()
	}
	return did
}

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
			c.st.L1Evictions++
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
		if c.sp != nil && r.ID != m.Span {
			c.sp.Mark(r.ID, span.SegCoalesce, now)
		}
		r.Data = m.Val
		c.sink.MemDone(r, now)
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
			r.Data = data
			c.sink.MemDone(r, now)
			break
		}
	}
	if mshr.empty() {
		c.mshrs.Free(m.Line)
	}
}

func (m *l1MSHR) empty() bool { return len(m.loads) == 0 && len(m.stores) == 0 }

// NextEvent implements coherence.L1.
func (c *L1) NextEvent(now timing.Cycle) timing.Cycle {
	if c.inHead < len(c.inbox) {
		return now
	}
	return timing.Never
}

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
func (c *L1) Drained() bool { return c.inHead >= len(c.inbox) && c.mshrs.Len() == 0 }

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
	cfg    config.Config
	part   int
	nodeID int
	weak   bool
	port   coherence.Port
	st     *stats.Run
	tr     *trace.Bus

	tags    *mem.Array[l2Line]
	mshrs   *mem.MSHRs[l2MSHR]
	dram    *mem.DRAM
	backing *mem.Backing

	pipe     timing.Pipe[*coherence.Msg]
	deferred []*coherence.Msg

	// TCS: stores waiting for lease expiry, plus per-line FIFO of
	// requests queued behind a stalled store (prevents starvation and
	// preserves the ordering point). Wake times follow lease expiries,
	// not push order, so stallQ is a Calendar rather than a Pipe.
	stallQ  timing.Calendar[*coherence.Msg]
	blocked map[uint64][]*coherence.Msg

	pool *coherence.MsgPool

	heat *obs.Heat // per-line contention sampling (nil disables)

	sp *span.Recorder // causal spans for sampled requests (nil disables)
}

// NewL2 builds partition part; weak selects TC-Weak.
func NewL2(cfg config.Config, part int, weak bool, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing) *L2 {
	return &L2{
		cfg:    cfg,
		part:   part,
		nodeID: coherence.L2NodeID(part, cfg.NumSMs),
		weak:   weak,
		port:   port,
		st:     st,
		tags: mem.NewArray[l2Line](cfg.L2SetsPerPart, cfg.L2Ways, func(l uint64) int {
			return coherence.L2SetIndex(l, cfg.L2Partitions, cfg.L2SetsPerPart)
		}),
		mshrs:   mem.NewMSHRs(cfg.L2MSHRs, resetL2MSHR),
		dram:    dram,
		backing: backing,
		blocked: make(map[uint64][]*coherence.Msg),
	}
}

// SetTracer attaches the event bus (nil disables tracing).
func (c *L2) SetTracer(tr *trace.Bus) { c.tr = tr }

// SetMsgPool attaches the machine's message free list (nil keeps plain
// allocation).
func (c *L2) SetMsgPool(p *coherence.MsgPool) { c.pool = p }

// SetHeat attaches the contention sketch (nil disables sampling).
func (c *L2) SetHeat(h *obs.Heat) { c.heat = h }

// SetSpans attaches the causal-span recorder (nil disables).
func (c *L2) SetSpans(sp *span.Recorder) { c.sp = sp }

// Deliver implements coherence.L2: requests enter the access pipeline at
// the delivery timestamp supplied by the interconnect.
func (c *L2) Deliver(m *coherence.Msg, at timing.Cycle) {
	c.pipe.Push(at+timing.Cycle(c.cfg.L2Latency), m)
}

// Tick implements coherence.L2.
func (c *L2) Tick(now timing.Cycle) bool {
	did := false

	if c.dram.Tick(now) {
		did = true
	}
	for {
		req, ok := c.dram.PopDone(now)
		if !ok {
			break
		}
		c.fill(req, now)
		did = true
	}

	// Wake stores whose lease wait ended (TCS).
	for {
		m, ok := c.stallQ.PopReady(now)
		if !ok {
			break
		}
		c.wakeStalledStore(m, now)
		did = true
	}

	if len(c.deferred) > 0 {
		m := c.deferred[0]
		if c.handle(m, now) {
			c.deferred = c.deferred[1:]
			did = true
		}
		return did
	}

	if m, ok := c.pipe.PopReady(now); ok {
		if !c.handle(m, now) {
			c.deferred = append(c.deferred, m)
		}
		did = true
	}
	return did
}

// handle processes one request; false means "defer and retry".
func (c *L2) handle(m *coherence.Msg, now timing.Cycle) bool {
	if m.Span != 0 {
		c.sp.Mark(m.Span, span.SegL2Pipe, now)
	}
	// Requests for a line with a stalled store queue behind it in
	// arrival order: the stalled store is the ordering point.
	if q, ok := c.blocked[m.Line]; ok {
		c.blocked[m.Line] = append(q, m)
		return true
	}
	e := c.tags.Lookup(m.Line)
	if e != nil {
		c.st.L2Accesses++
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
	lease := now + timing.Cycle(c.cfg.TCLease)
	if lease > l.GTS {
		l.GTS = lease
	}
	c.tags.Touch(e)
	c.heat.Add(m.Line, obs.HeatReads, -1)
	if m.Exp > 0 {
		c.st.ExpiredGets++ // tracked for Fig 6 comparability
	}
	c.tr.Lease(now, trace.LeaseGrant, c.part, m.Line, uint64(now), uint64(lease), m.Src)
	if m.Span != 0 {
		// TC leases live in physical cycles, so the grant window is a
		// true sub-span of the run.
		c.sp.AddChild(m.Span, "lease-grant", now, lease)
		c.sp.NoteLease(m.Line, m.Span)
	}
	resp := c.pool.Get()
	*resp = coherence.Msg{
		Type: coherence.Data,
		Line: m.Line,
		Src:  c.nodeID,
		Dst:  m.Src,
		Exp:  uint64(lease),
		Val:  l.Val,
		Span: m.Span,
	}
	c.port.Send(resp, now)
	c.pool.Put(m)
}

// writeHit performs or stalls a store/atomic on a resident block. TCS
// stalls until the latest lease expires; TCW completes immediately and
// reports the GWCT.
func (c *L2) writeHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	l := &e.Meta
	if !c.weak && l.GTS >= now {
		// TC-Strong: wait out the lease.
		c.st.L2StoreStallCycles += uint64(l.GTS + 1 - now)
		c.heat.Add(m.Line, obs.HeatExpiryWaits, -1)
		c.tr.L2State(now, c.part, m.Line, "store-stall", uint64(now), uint64(l.GTS))
		if m.Span != 0 {
			c.sp.AddChild(m.Span, "expiry-wait", now, l.GTS+1)
			c.sp.EdgeLease(m.Span, m.Line)
		}
		c.blocked[m.Line] = []*coherence.Msg{}
		c.stallQ.Push(l.GTS+1, m)
		return
	}
	c.performWrite(m, l, now)
	c.pool.Put(m)
	c.tags.Touch(e)
}

func (c *L2) performWrite(m *coherence.Msg, l *l2Line, now timing.Cycle) {
	c.heat.Add(m.Line, obs.HeatWrites, m.Src)
	old := l.Val
	if m.Type == coherence.AtomicReq {
		l.Val = old + m.Val
		c.tr.L2State(now, c.part, m.Line, "atomic", uint64(now), uint64(l.GTS))
	} else {
		l.Val = m.Val
		c.tr.L2State(now, c.part, m.Line, "write", uint64(now), uint64(l.GTS))
	}
	l.Dirty = true
	gwct := uint64(now)
	if uint64(l.GTS) > gwct {
		gwct = uint64(l.GTS)
	}
	resp := c.pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.nodeID,
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
	c.port.Send(resp, now)
}

// wakeStalledStore completes a TCS store whose lease wait ended, then
// replays everything that queued behind it.
func (c *L2) wakeStalledStore(m *coherence.Msg, now timing.Cycle) {
	if m.Span != 0 {
		// The lease wait the store just finished is protocol blame.
		c.sp.Mark(m.Span, span.SegProto, now)
	}
	queued := c.blocked[m.Line]
	delete(c.blocked, m.Line)
	e := c.tags.Lookup(m.Line)
	if e == nil {
		// Evicted while stalled (cannot happen: unexpired blocks are
		// pinned); be safe and reprocess from scratch.
		if !c.handle(m, now) {
			c.deferred = append(c.deferred, m)
		}
	} else {
		c.st.L2Accesses++
		c.performWrite(m, &e.Meta, now)
		c.pool.Put(m)
		c.tags.Touch(e)
	}
	for _, q := range queued {
		if !c.handle(q, now) {
			c.deferred = append(c.deferred, q)
		}
	}
}

func (c *L2) miss(m *coherence.Msg, now timing.Cycle) bool {
	c.st.L2Accesses++
	mshr := c.mshrs.Get(m.Line)
	if mshr == nil {
		c.st.L2Misses++
		mshr = c.mshrs.Alloc(m.Line)
		if mshr == nil {
			c.st.L2Accesses--
			c.st.L2Misses--
			return false
		}
		c.dram.Submit(mem.DRAMReq{Line: m.Line, ID: m.Line, Span: m.Span}, now)
	}
	switch m.Type {
	case coherence.GetS:
		mshr.readers = append(mshr.readers, m)
	case coherence.Write:
		// No outstanding leases for an absent block: the write is
		// globally visible once ordered here; ack immediately.
		mshr.writeVal = m.Val
		mshr.hasWrite = true
		ack := c.pool.Get()
		*ack = coherence.Msg{
			Type:  coherence.Ack,
			Line:  m.Line,
			Src:   c.nodeID,
			Dst:   m.Src,
			ReqID: m.ReqID,
			Warp:  m.Warp,
			Exp:   uint64(now),
			Span:  m.Span,
		}
		c.port.Send(ack, now)
		c.pool.Put(m)
	case coherence.AtomicReq:
		mshr.stalled = append(mshr.stalled, m)
	}
	return true
}

// fill installs a DRAM fetch. Eviction must pick an expired victim: TC
// pins unexpired blocks (the paper notes Singh et al. hold them in MSHRs);
// if none is available the fill retries, modeling that cost.
func (c *L2) fill(req mem.DRAMReq, now timing.Cycle) {
	if req.Write {
		return
	}
	line := req.Line
	mshr := c.mshrs.Get(line)
	if mshr == nil {
		return
	}
	e, victim, ok := c.tags.Allocate(line, func(v *mem.Entry[l2Line]) bool {
		return v.Meta.GTS < now && c.mshrs.Get(v.Tag) == nil
	})
	if !ok {
		// All ways hold live leases; retry when the earliest expires.
		c.dram.Submit(mem.DRAMReq{Line: line, ID: line}, now)
		return
	}
	if victim.WasValid {
		c.st.L2Evictions++
		if victim.Meta.Dirty {
			c.backing.Write(victim.Tag, victim.Meta.Val)
			c.dram.Submit(mem.DRAMReq{Line: victim.Tag, Write: true, ID: victim.Tag}, now)
		}
	}
	l := &e.Meta
	l.Val = c.backing.Read(line)
	if mshr.hasWrite {
		l.Val = mshr.writeVal
		l.Dirty = true
	}
	if len(mshr.readers) > 0 {
		lease := now + timing.Cycle(c.cfg.TCLease)
		l.GTS = lease
		for _, r := range mshr.readers {
			c.tr.Lease(now, trace.LeaseGrant, c.part, line, uint64(now), uint64(lease), r.Src)
			if r.Span != 0 {
				c.sp.Mark(r.Span, span.SegDRAM, now)
				c.sp.AddChild(r.Span, "lease-grant", now, lease)
				c.sp.NoteLease(line, r.Span)
			}
			resp := c.pool.Get()
			*resp = coherence.Msg{
				Type: coherence.Data,
				Line: line,
				Src:  c.nodeID,
				Dst:  r.Src,
				Exp:  uint64(lease),
				Val:  l.Val,
				Span: r.Span,
			}
			c.port.Send(resp, now)
			c.pool.Put(r)
		}
		mshr.readers = mshr.readers[:0]
	}
	stalled := mshr.stalled
	c.mshrs.Free(line)
	for _, s := range stalled {
		if s.Span != 0 {
			c.sp.Mark(s.Span, span.SegProto, now)
		}
		if !c.handle(s, now) {
			c.deferred = append(c.deferred, s)
		}
	}
}

// Peek returns the current value of line if the block is resident — the
// authoritative copy, since TC L1s are write-through (differential
// checker's final-memory oracle).
func (c *L2) Peek(line uint64) (uint64, bool) {
	if e := c.tags.Lookup(line); e != nil {
		return e.Meta.Val, true
	}
	return 0, false
}

// NextEvent implements coherence.L2.
func (c *L2) NextEvent(now timing.Cycle) timing.Cycle {
	next := timing.Min(c.dram.NextEvent(), c.pipe.NextReady())
	next = timing.Min(next, c.stallQ.NextReady())
	if len(c.deferred) > 0 {
		next = timing.Min(next, now+1)
	}
	return next
}

// Drained implements coherence.L2.
func (c *L2) Drained() bool {
	return c.pipe.Len() == 0 && len(c.deferred) == 0 && c.stallQ.Len() == 0 &&
		len(c.blocked) == 0 && c.mshrs.Len() == 0 && c.dram.Pending() == 0
}

// SetSink wires the completion path to the SM (set once at machine build;
// the SM and L1 reference each other).
func (c *L1) SetSink(s coherence.Sink) {
	c.sink = s
	if w, ok := s.(coherence.Waker); ok {
		c.wake = w.Wake
	} else {
		c.wake = nil
	}
}
