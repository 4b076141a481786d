// Package mesi implements the paper's baseline: a CPU-style directory
// protocol adapted to GPU write-through, write-no-allocate L1 caches
// ("MESI" in Figs 1, 8 and 9). The L2 directory tracks sharers with a full
// bitmap; a store to a shared block invalidates every copy and collects
// acknowledgements before the store is acknowledged (write atomicity for
// SC), and L2 evictions of shared blocks recall the copies first.
//
// The package also provides the SC-IDEAL machine of Fig. 1d: identical,
// except read and write permissions are acquired instantly — sharer copies
// vanish with zero latency and zero traffic, isolating the part of SC
// overhead that comes from coherence permission latency.
package mesi

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

// l1Line is the per-line L1 metadata (S state + value).
type l1Line struct {
	Val uint64
}

type l1MSHR struct {
	getsOut bool
	// squash poisons the in-flight fill: a local store (or an SC-IDEAL
	// zap) hit this line after the GetS left, so the data coming back
	// predates the store. Installing it would plant a stale copy the
	// directory no longer tracks (the writer's sharer bit is cleared on
	// the assumption the L1 self-invalidated). The poisoned fill is
	// discarded and the GetS retried; the retry is ordered behind the
	// store at the L2, so every queued load observes the new value —
	// always a legal SC ordering for a load still in flight.
	squash bool
	loads  []*coherence.Request
	stores []*coherence.Request
	// span is the causal-span ID riding the in-flight GetS (0 when the
	// initiating load is untracked); coalescing loads edge on it.
	span uint64
}

func (m *l1MSHR) empty() bool { return len(m.loads) == 0 && len(m.stores) == 0 }

// resetL1MSHR restores a recycled entry, keeping slice capacity.
func resetL1MSHR(m *l1MSHR) {
	loads, stores := m.loads[:0], m.stores[:0]
	*m = l1MSHR{loads: loads, stores: stores}
}

// L1 is the MESI private-cache controller. Valid lines are in S state;
// stores self-invalidate the local copy and write through.
type L1 struct {
	cfg  config.Config
	id   int
	port coherence.Port
	sink coherence.Sink
	st   *stats.Run
	tr   *trace.Bus

	tags   *mem.Array[l1Line]
	mshrs  *mem.MSHRs[l1MSHR]
	inbox  []*coherence.Msg
	inHead int // next inbox element to drain (the slice is reused, not re-sliced)
	pool   *coherence.MsgPool

	// wake, when non-nil, notifies the SM that this Tick may have freed
	// resources it is polling for (an MSHR slot); set from SetSink when the
	// sink implements coherence.Waker.
	wake func()

	heat *obs.Heat // per-line contention sampling (nil disables)

	sp *span.Recorder // causal spans for sampled requests (nil disables)
}

// NewL1 builds the controller.
func NewL1(cfg config.Config, id int, port coherence.Port, sink coherence.Sink, st *stats.Run) *L1 {
	return &L1{
		cfg:  cfg,
		id:   id,
		port: port,
		sink: sink,
		st:   st,
		tags: mem.NewArray[l1Line](cfg.L1Sets, cfg.L1Ways, func(l uint64) int {
			return coherence.L1SetIndex(l, cfg.L1Sets)
		}),
		mshrs: mem.NewMSHRs(cfg.L1MSHRs, resetL1MSHR),
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

// Zap invalidates a line with no message exchange (SC-IDEAL only). A fill
// already in flight predates the zapping write and must not install — nor
// serve loads, which may have issued after the write performed.
func (c *L1) Zap(line uint64) {
	if e := c.tags.Lookup(line); e != nil {
		c.tags.Invalidate(e)
	}
	if m := c.mshrs.Get(line); m != nil && m.getsOut {
		m.squash = true
	}
}

// Access implements coherence.L1.
func (c *L1) Access(r *coherence.Request, now timing.Cycle) bool {
	if r.Class == stats.OpLoad {
		return c.load(r, now)
	}
	return c.write(r, now)
}

func (c *L1) load(r *coherence.Request, now timing.Cycle) bool {
	c.st.L1Loads++
	e := c.tags.Lookup(r.Line)
	if e != nil {
		c.st.L1LoadHits++
		c.tags.Touch(e)
		if c.sp != nil {
			c.sp.Mark(r.ID, span.SegL1, now)
		}
		r.Data = e.Meta.Val
		c.sink.MemDone(r, now)
		return true
	}
	c.st.L1LoadMisses++
	m := c.mshrs.Get(r.Line)
	if m == nil {
		m = c.mshrs.Alloc(r.Line)
		if m == nil {
			c.st.L1Loads--
			c.st.L1LoadMisses--
			return false
		}
	}
	m.loads = append(m.loads, r)
	if !m.getsOut {
		m.getsOut = true
		if c.sp.Tracked(r.ID) {
			m.span = r.ID
			c.sp.Mark(r.ID, span.SegL1, now)
		}
		msg := c.pool.Get()
		*msg = coherence.Msg{
			Type: coherence.GetS,
			Line: r.Line,
			Src:  c.id,
			Dst:  c.l2node(r.Line),
			Span: m.span,
		}
		c.port.Send(msg, now)
	} else if c.sp.Tracked(r.ID) {
		c.sp.Edge(r.ID, m.span, "coalesce")
	}
	return true
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
	// Write-through, no-allocate: the local copy is stale the moment the
	// store issues — including a copy still in flight, which must not
	// install when it lands.
	if e := c.tags.Lookup(r.Line); e != nil {
		c.tags.Invalidate(e)
	}
	if m.getsOut {
		m.squash = true
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
	case coherence.WBAck:
		// Directory acknowledged a PutS; nothing to do.
	case coherence.Inv:
		c.st.Invalidations++
		c.heat.Add(m.Line, obs.HeatPingPong, -1)
		if e := c.tags.Lookup(m.Line); e != nil {
			c.tags.Invalidate(e)
			c.tr.L1State(now, c.id, m.Line, "S->I_inv")
		}
		ack := c.pool.Get()
		*ack = coherence.Msg{
			Type: coherence.InvAck,
			Line: m.Line,
			Src:  c.id,
			Dst:  m.Src,
		}
		c.port.Send(ack, now)
	default:
		panic("mesi l1: unexpected message " + m.Type.String())
	}
}

func (c *L1) handleData(m *coherence.Msg, now timing.Cycle) {
	if mshr := c.mshrs.Get(m.Line); mshr != nil && mshr.squash {
		// The fill predates a local store: discard it and refetch. The
		// retried GetS is ordered behind the store's write at the L2.
		mshr.squash = false
		mshr.getsOut = false
		c.tr.L1State(now, c.id, m.Line, "fill-squashed")
		if len(mshr.loads) > 0 {
			mshr.getsOut = true
			gets := c.pool.Get()
			*gets = coherence.Msg{
				Type: coherence.GetS,
				Line: m.Line,
				Src:  c.id,
				Dst:  c.l2node(m.Line),
				Span: mshr.span,
			}
			c.port.Send(gets, now)
		} else if mshr.empty() {
			c.mshrs.Free(m.Line)
		}
		return
	}
	if mshr := c.mshrs.Get(m.Line); mshr != nil && len(mshr.stores) > 0 {
		// A local store/atomic to this line is still outstanding. The fill
		// was requested after it issued, so its value is the L2-ordered
		// pre-write image — legal for the sibling warps waiting in
		// mshr.loads (they are unordered with the writer), but not safe to
		// install: the directory strips the writer's own sharer bit, so the
		// copy would be stale and untracked the moment the write performs.
		c.tr.L1State(now, c.id, m.Line, "fill-bypassed")
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
		return
	}
	e, victim, ok := c.tags.Allocate(m.Line, func(v *mem.Entry[l1Line]) bool {
		return c.mshrs.Get(v.Tag) == nil
	})
	if ok {
		if victim.WasValid {
			c.st.L1Evictions++
			// MESI directories must learn about evictions (PutS); the
			// resulting control traffic is a significant cost of
			// directory coherence on thrash-prone GPU L1s.
			puts := c.pool.Get()
			*puts = coherence.Msg{
				Type: coherence.PutS,
				Line: victim.Tag,
				Src:  c.id,
				Dst:  c.l2node(victim.Tag),
			}
			c.port.Send(puts, now)
		}
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
	if mshr.empty() {
		c.mshrs.Free(m.Line)
	}
}

func (c *L1) finishStore(m *coherence.Msg, data uint64, now timing.Cycle) {
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

// NextEvent implements coherence.L1.
func (c *L1) NextEvent(now timing.Cycle) timing.Cycle {
	if c.inHead < len(c.inbox) {
		return now
	}
	return timing.Never
}

// FenceReadyAt implements coherence.L1 (MESI runs under SC; no-op).
func (c *L1) FenceReadyAt(warp int, now timing.Cycle) timing.Cycle { return now }

// FenceComplete implements coherence.L1.
func (c *L1) FenceComplete(warp int, now timing.Cycle) {}

// Drained implements coherence.L1.
func (c *L1) Drained() bool { return c.inHead >= len(c.inbox) && c.mshrs.Len() == 0 }

// l2Line is the per-block directory state: value, dirty bit, and the
// sharer bitmap (full map; up to 64 SMs).
type l2Line struct {
	Val     uint64
	Dirty   bool
	Sharers uint64
}

type l2MSHR struct {
	readers  []*coherence.Msg
	stalled  []*coherence.Msg // atomics wait for the fill (need the old value)
	writeVal uint64
	hasWrite bool
}

// resetL2MSHR restores a recycled entry, keeping slice capacity.
func resetL2MSHR(m *l2MSHR) {
	readers, stalled := m.readers[:0], m.stalled[:0]
	*m = l2MSHR{readers: readers, stalled: stalled}
}

// invWait tracks an invalidation round: either a store waiting for
// INVACKs, or a recall preparing an eviction (write == nil).
type invWait struct {
	pending int
	write   *coherence.Msg
	queued  []*coherence.Msg
	started timing.Cycle // round start, for the tracked writer's inv-wait sub-span
}

// L2 is one directory partition.
type L2 struct {
	cfg    config.Config
	part   int
	nodeID int
	ideal  bool // SC-IDEAL: permissions acquired instantly
	port   coherence.Port
	st     *stats.Run
	tr     *trace.Bus

	tags    *mem.Array[l2Line]
	mshrs   *mem.MSHRs[l2MSHR]
	dram    *mem.DRAM
	backing *mem.Backing

	pipe      timing.Pipe[*coherence.Msg] // demand requests
	mpipe     timing.Pipe[*coherence.Msg] // directory maintenance (PutS, InvAck)
	deferred  []*coherence.Msg
	invs      map[uint64]*invWait
	zap       func(core int, line uint64) // SC-IDEAL instant invalidation
	fillRetry timing.Pipe[uint64]         // pushed at now+8, so in ready-time order
	pool      *coherence.MsgPool

	heat *obs.Heat // per-line contention sampling (nil disables)

	sp *span.Recorder // causal spans for sampled requests (nil disables)
}

// NewL2 builds partition part. For SC-IDEAL (ideal=true), zap must
// invalidate the given core's copy instantly.
func NewL2(cfg config.Config, part int, ideal bool, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing, zap func(core int, line uint64)) *L2 {
	return &L2{
		cfg:    cfg,
		part:   part,
		nodeID: coherence.L2NodeID(part, cfg.NumSMs),
		ideal:  ideal,
		port:   port,
		st:     st,
		tags: mem.NewArray[l2Line](cfg.L2SetsPerPart, cfg.L2Ways, func(l uint64) int {
			return coherence.L2SetIndex(l, cfg.L2Partitions, cfg.L2SetsPerPart)
		}),
		mshrs:   mem.NewMSHRs(cfg.L2MSHRs, resetL2MSHR),
		dram:    dram,
		backing: backing,
		invs:    make(map[uint64]*invWait),
		zap:     zap,
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

// Deliver implements coherence.L2. Directory-maintenance messages (PutS,
// InvAck) travel on their own virtual network and are serviced by the
// directory's state-update port, separate from the demand pipeline.
func (c *L2) Deliver(m *coherence.Msg, at timing.Cycle) {
	ready := at + timing.Cycle(c.cfg.L2Latency)
	if m.Type == coherence.PutS || m.Type == coherence.InvAck {
		c.mpipe.Push(ready, m)
		return
	}
	c.pipe.Push(ready, m)
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
	for {
		line, ok := c.fillRetry.PopReady(now)
		if !ok {
			break
		}
		c.fill(mem.DRAMReq{Line: line}, now)
		did = true
	}
	// Maintenance port: up to two directory state updates per cycle.
	for i := 0; i < 2; i++ {
		m, ok := c.mpipe.PopReady(now)
		if !ok {
			break
		}
		c.handle(m, now)
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

func (c *L2) handle(m *coherence.Msg, now timing.Cycle) bool {
	if m.Type == coherence.InvAck {
		c.ack(m, now)
		c.pool.Put(m)
		return true
	}
	if m.Type == coherence.PutS {
		// Directory update for an L1 eviction: clear the sharer bit.
		if e := c.tags.Lookup(m.Line); e != nil {
			e.Meta.Sharers &^= 1 << uint(m.Src)
		}
		wback := c.pool.Get()
		*wback = coherence.Msg{
			Type: coherence.WBAck,
			Line: m.Line,
			Src:  c.nodeID,
			Dst:  m.Src,
		}
		c.port.Send(wback, now)
		c.pool.Put(m)
		return true
	}
	if m.Span != 0 {
		c.sp.Mark(m.Span, span.SegL2Pipe, now)
	}
	if w, ok := c.invs[m.Line]; ok {
		// An invalidation round owns the line; queue behind it.
		w.queued = append(w.queued, m)
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
	e.Meta.Sharers |= 1 << uint(m.Src)
	c.tags.Touch(e)
	c.heat.Add(m.Line, obs.HeatReads, -1)
	resp := c.pool.Get()
	*resp = coherence.Msg{
		Type: coherence.Data,
		Line: m.Line,
		Src:  c.nodeID,
		Dst:  m.Src,
		Val:  e.Meta.Val,
		Span: m.Span,
	}
	c.port.Send(resp, now)
	c.pool.Put(m)
}

func (c *L2) writeHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	sharers := e.Meta.Sharers &^ (1 << uint(m.Src)) // writer self-invalidated
	if sharers == 0 || c.ideal {
		if c.ideal && sharers != 0 {
			// Instant, free invalidation of every sharer.
			for core := 0; core < c.cfg.NumSMs; core++ {
				if sharers&(1<<uint(core)) != 0 {
					c.zap(core, m.Line)
				}
			}
		}
		e.Meta.Sharers = 0
		c.performWrite(m, &e.Meta, now)
		c.pool.Put(m)
		c.tags.Touch(e)
		return
	}
	// Invalidate every sharer; the write completes when all ack.
	c.tr.L2State(now, c.part, m.Line, "inv-round", 0, 0)
	w := &invWait{write: m, started: now}
	c.invs[m.Line] = w
	for core := 0; core < c.cfg.NumSMs; core++ {
		if sharers&(1<<uint(core)) != 0 {
			w.pending++
			inv := c.pool.Get()
			*inv = coherence.Msg{
				Type: coherence.Inv,
				Line: m.Line,
				Src:  c.nodeID,
				Dst:  core,
			}
			c.port.Send(inv, now)
		}
	}
	e.Meta.Sharers = 0
}

func (c *L2) performWrite(m *coherence.Msg, l *l2Line, now timing.Cycle) {
	c.heat.Add(m.Line, obs.HeatWrites, m.Src)
	old := l.Val
	if m.Type == coherence.AtomicReq {
		l.Val = old + m.Val
		c.tr.L2State(now, c.part, m.Line, "atomic", 0, 0)
	} else {
		l.Val = m.Val
		c.tr.L2State(now, c.part, m.Line, "write", 0, 0)
	}
	l.Dirty = true
	resp := c.pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.nodeID,
		Dst:   m.Src,
		ReqID: m.ReqID,
		Warp:  m.Warp,
		Span:  m.Span,
	}
	if m.Type == coherence.AtomicReq {
		resp.Type = coherence.Data
		resp.Atomic = true
		resp.Val = old
	}
	c.port.Send(resp, now)
}

// ack processes one INVACK.
func (c *L2) ack(m *coherence.Msg, now timing.Cycle) {
	w, ok := c.invs[m.Line]
	if !ok {
		return
	}
	w.pending--
	if w.pending > 0 {
		return
	}
	delete(c.invs, m.Line)
	if w.write != nil {
		if w.write.Span != 0 {
			// The invalidation round the store just waited out.
			c.sp.Mark(w.write.Span, span.SegProto, now)
			c.sp.AddChild(w.write.Span, "inv-wait", w.started, now)
		}
		if e := c.tags.Lookup(m.Line); e != nil {
			c.st.L2Accesses++
			c.performWrite(w.write, &e.Meta, now)
			c.pool.Put(w.write)
			c.tags.Touch(e)
		} else if !c.handle(w.write, now) {
			c.deferred = append(c.deferred, w.write)
		}
	}
	// Recall rounds (write == nil) leave the line clean of sharers; the
	// stalled fill retries and can now evict it.
	for _, q := range w.queued {
		if q.Span != 0 {
			// Queued behind the round: protocol blame, not pipe time.
			c.sp.Mark(q.Span, span.SegProto, now)
		}
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
		// An absent block has no sharers (recalls keep the L1s within
		// the directory's reach), so the write is globally visible the
		// moment it is ordered here: merge it and ack immediately.
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
			Span:  m.Span,
		}
		c.port.Send(ack, now)
		c.pool.Put(m)
	default:
		mshr.stalled = append(mshr.stalled, m) // atomics need the old value
	}
	return true
}

// fill installs a DRAM fetch. A victim still cached by L1s must be
// recalled: its copies are invalidated and, until every ack returns, the
// victim's address is owned by the invalidation round (any request for it
// queues). These recall rounds are a significant MESI cost on GPUs.
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
		if c.mshrs.Get(v.Tag) != nil {
			return false
		}
		_, busy := c.invs[v.Tag]
		return !busy
	})
	if !ok {
		// Every way is mid-transaction; retry shortly.
		c.fillRetry.Push(now+8, line)
		return
	}
	if victim.WasValid {
		c.st.L2Evictions++
		if victim.Meta.Sharers != 0 {
			c.recall(victim.Tag, victim.Meta.Sharers, now)
		}
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
	for _, r := range mshr.readers {
		l.Sharers |= 1 << uint(r.Src)
		if r.Span != 0 {
			c.sp.Mark(r.Span, span.SegDRAM, now)
		}
		resp := c.pool.Get()
		*resp = coherence.Msg{
			Type: coherence.Data,
			Line: line,
			Src:  c.nodeID,
			Dst:  r.Src,
			Val:  l.Val,
			Span: r.Span,
		}
		c.port.Send(resp, now)
		c.pool.Put(r)
	}
	mshr.readers = mshr.readers[:0]
	stalled := mshr.stalled
	c.mshrs.Free(line)
	for _, s := range stalled {
		if s.Span != 0 {
			c.sp.Mark(s.Span, span.SegDRAM, now)
		}
		if !c.handle(s, now) {
			c.deferred = append(c.deferred, s)
		}
	}
}

// recall invalidates every L1 copy of an evicted block; until the acks
// return, the address belongs to the invalidation round.
func (c *L2) recall(line, sharers uint64, now timing.Cycle) {
	c.st.Recalls++
	c.tr.L2State(now, c.part, line, "recall", 0, 0)
	if c.ideal {
		for core := 0; core < c.cfg.NumSMs; core++ {
			if sharers&(1<<uint(core)) != 0 {
				c.zap(core, line)
			}
		}
		return
	}
	w := &invWait{}
	c.invs[line] = w
	for core := 0; core < c.cfg.NumSMs; core++ {
		if sharers&(1<<uint(core)) != 0 {
			w.pending++
			inv := c.pool.Get()
			*inv = coherence.Msg{
				Type: coherence.Inv,
				Line: line,
				Src:  c.nodeID,
				Dst:  core,
			}
			c.port.Send(inv, now)
		}
	}
}

// Peek returns the current value of line if the block is resident — the
// authoritative copy, since MESI L1s here are write-through (differential
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
	next = timing.Min(next, c.mpipe.NextReady())
	next = timing.Min(next, c.fillRetry.NextReady())
	if len(c.deferred) > 0 {
		next = timing.Min(next, now+1)
	}
	return next
}

// Drained implements coherence.L2.
func (c *L2) Drained() bool {
	return c.pipe.Len() == 0 && c.mpipe.Len() == 0 && len(c.deferred) == 0 &&
		len(c.invs) == 0 && c.mshrs.Len() == 0 && c.dram.Pending() == 0 &&
		c.fillRetry.Len() == 0
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
