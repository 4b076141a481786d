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
	"rccsim/internal/coherence/ctl"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
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
	ctl.L1

	tags  *mem.Array[l1Line]
	mshrs *mem.MSHRs[l1MSHR]
}

// NewL1 builds the controller.
func NewL1(cfg config.Config, id int, port coherence.Port, st *stats.Run) *L1 {
	c := &L1{
		L1:    ctl.NewL1(cfg, id, port, st),
		tags:  ctl.L1Tags[l1Line](cfg),
		mshrs: mem.NewMSHRs(cfg.L1MSHRs, resetL1MSHR),
	}
	c.Reset()
	return c
}

// Reset returns the controller to the state NewL1 builds, keeping the tag
// array and MSHR table.
func (c *L1) Reset() {
	c.L1.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
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
	c.St.L1Loads++
	e := c.tags.Lookup(r.Line)
	if e != nil {
		c.St.L1LoadHits++
		c.tags.Touch(e)
		if c.Sp != nil {
			c.Sp.Mark(r.ID, span.SegL1, now)
		}
		c.Complete(r, e.Meta.Val, now)
		return true
	}
	c.St.L1LoadMisses++
	m := c.mshrs.Get(r.Line)
	if m == nil {
		m = c.mshrs.Alloc(r.Line)
		if m == nil {
			c.St.L1Loads--
			c.St.L1LoadMisses--
			return false
		}
	}
	m.loads = append(m.loads, r)
	if !m.getsOut {
		m.getsOut = true
		if c.Sp.Tracked(r.ID) {
			m.span = r.ID
			c.Sp.Mark(r.ID, span.SegL1, now)
		}
		msg := c.Pool.Get()
		*msg = coherence.Msg{
			Type: coherence.GetS,
			Line: r.Line,
			Src:  c.ID,
			Dst:  c.L2Node(r.Line),
			Span: m.span,
		}
		c.Port.Send(msg, now)
	} else if c.Sp.Tracked(r.ID) {
		c.Sp.Edge(r.ID, m.span, "coalesce")
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
		c.St.L1Stores++
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
	if c.Sp.Tracked(r.ID) {
		sp = r.ID
		c.Sp.Mark(r.ID, span.SegL1, now)
	}
	msg := c.Pool.Get()
	*msg = coherence.Msg{
		Type:   typ,
		Line:   r.Line,
		Src:    c.ID,
		Dst:    c.L2Node(r.Line),
		ReqID:  r.ID,
		Warp:   r.Warp,
		Val:    r.Val,
		Atomic: atomic,
		Span:   sp,
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
	case coherence.WBAck:
		// Directory acknowledged a PutS; nothing to do.
	case coherence.Inv:
		c.St.Invalidations++
		c.Heat.Add(m.Line, obs.HeatPingPong, -1)
		if e := c.tags.Lookup(m.Line); e != nil {
			c.tags.Invalidate(e)
			c.Tr.L1State(now, c.ID, m.Line, "S->I_inv")
		}
		ack := c.Pool.Get()
		*ack = coherence.Msg{
			Type: coherence.InvAck,
			Line: m.Line,
			Src:  c.ID,
			Dst:  m.Src,
		}
		c.Port.Send(ack, now)
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
		c.Tr.L1State(now, c.ID, m.Line, "fill-squashed")
		if len(mshr.loads) > 0 {
			mshr.getsOut = true
			gets := c.Pool.Get()
			*gets = coherence.Msg{
				Type: coherence.GetS,
				Line: m.Line,
				Src:  c.ID,
				Dst:  c.L2Node(m.Line),
				Span: mshr.span,
			}
			c.Port.Send(gets, now)
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
		c.Tr.L1State(now, c.ID, m.Line, "fill-bypassed")
		mshr.getsOut = false
		mshr.span = 0
		for _, r := range mshr.loads {
			if c.Sp != nil && r.ID != m.Span {
				c.Sp.Mark(r.ID, span.SegCoalesce, now)
			}
			c.Complete(r, m.Val, now)
		}
		mshr.loads = mshr.loads[:0]
		return
	}
	e, victim, ok := c.tags.Allocate(m.Line, func(v *mem.Entry[l1Line]) bool {
		return c.mshrs.Get(v.Tag) == nil
	})
	if ok {
		if victim.WasValid {
			c.St.L1Evictions++
			// MESI directories must learn about evictions (PutS); the
			// resulting control traffic is a significant cost of
			// directory coherence on thrash-prone GPU L1s.
			puts := c.Pool.Get()
			*puts = coherence.Msg{
				Type: coherence.PutS,
				Line: victim.Tag,
				Src:  c.ID,
				Dst:  c.L2Node(victim.Tag),
			}
			c.Port.Send(puts, now)
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
		if c.Sp != nil && r.ID != m.Span {
			c.Sp.Mark(r.ID, span.SegCoalesce, now)
		}
		c.Complete(r, m.Val, now)
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
			c.Complete(r, data, now)
			break
		}
	}
	if mshr.empty() {
		c.mshrs.Free(m.Line)
	}
}

// FenceReadyAt implements coherence.L1 (MESI runs under SC; no-op).
func (c *L1) FenceReadyAt(warp int, now timing.Cycle) timing.Cycle { return now }

// FenceComplete implements coherence.L1.
func (c *L1) FenceComplete(warp int, now timing.Cycle) {}

// Drained implements coherence.L1.
func (c *L1) Drained() bool { return c.Idle() && c.mshrs.Len() == 0 }

// Closed implements coherence.L1: the MSHR table is full.
func (c *L1) Closed() bool { return c.mshrs.Full() }

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
	ctl.L2
	ideal bool // SC-IDEAL: permissions acquired instantly

	tags  *mem.Array[l2Line]
	mshrs *mem.MSHRs[l2MSHR]

	mpipe     timing.Pipe[*coherence.Msg] // directory maintenance (PutS, InvAck)
	invs      map[uint64]*invWait
	zap       func(core int, line uint64) // SC-IDEAL instant invalidation
	fillRetry timing.Pipe[uint64]         // pushed at now+8, so in ready-time order
}

// NewL2 builds partition part. For SC-IDEAL (ideal=true), zap must
// invalidate the given core's copy instantly.
func NewL2(cfg config.Config, part int, ideal bool, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing, zap func(core int, line uint64)) *L2 {
	c := &L2{
		L2:    ctl.NewL2(cfg, part, port, st, dram, backing),
		ideal: ideal,
		tags:  ctl.L2Tags[l2Line](cfg),
		mshrs: mem.NewMSHRs(cfg.L2MSHRs, resetL2MSHR),
		invs:  make(map[uint64]*invWait),
		zap:   zap,
	}
	c.Reset()
	return c
}

// Reset returns the partition to the state NewL2 builds, keeping the tag
// array, MSHR table and directory pipes. The DRAM channel and backing
// image are reset by their owner.
func (c *L2) Reset() {
	c.L2.Reset()
	c.tags.Reset()
	c.mshrs.Reset()
	c.mpipe.Reset()
	clear(c.invs)
	c.fillRetry.Reset()
}

// Deliver implements coherence.L2. Directory-maintenance messages (PutS,
// InvAck) travel on their own virtual network and are serviced by the
// directory's state-update port, separate from the demand pipeline.
func (c *L2) Deliver(m *coherence.Msg, at timing.Cycle) {
	if m.Type == coherence.PutS || m.Type == coherence.InvAck {
		c.mpipe.Push(at+timing.Cycle(c.Cfg.L2Latency), m)
		return
	}
	c.L2.Deliver(m, at)
}

// Tick implements coherence.L2.
func (c *L2) Tick(now timing.Cycle) bool {
	did := c.DrainDRAM(now, c.fill)
	for {
		line, ok := c.fillRetry.PopReady(now)
		if !ok {
			break
		}
		c.fill(line, now)
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
	return c.Serve(now, c.handle) || did
}

func (c *L2) handle(m *coherence.Msg, now timing.Cycle) bool {
	if m.Type == coherence.InvAck {
		c.ack(m, now)
		c.Pool.Put(m)
		return true
	}
	if m.Type == coherence.PutS {
		// Directory update for an L1 eviction: clear the sharer bit.
		if e := c.tags.Lookup(m.Line); e != nil {
			e.Meta.Sharers &^= 1 << uint(m.Src)
		}
		wback := c.Pool.Get()
		*wback = coherence.Msg{
			Type: coherence.WBAck,
			Line: m.Line,
			Src:  c.ID,
			Dst:  m.Src,
		}
		c.Port.Send(wback, now)
		c.Pool.Put(m)
		return true
	}
	if m.Span != 0 {
		c.Sp.Mark(m.Span, span.SegL2Pipe, now)
	}
	if w, ok := c.invs[m.Line]; ok {
		// An invalidation round owns the line; queue behind it.
		w.queued = append(w.queued, m)
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
	e.Meta.Sharers |= 1 << uint(m.Src)
	c.tags.Touch(e)
	c.Heat.Add(m.Line, obs.HeatReads, -1)
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type: coherence.Data,
		Line: m.Line,
		Src:  c.ID,
		Dst:  m.Src,
		Val:  e.Meta.Val,
		Span: m.Span,
	}
	c.Port.Send(resp, now)
	c.Pool.Put(m)
}

func (c *L2) writeHit(m *coherence.Msg, e *mem.Entry[l2Line], now timing.Cycle) {
	sharers := e.Meta.Sharers &^ (1 << uint(m.Src)) // writer self-invalidated
	if sharers == 0 || c.ideal {
		if c.ideal && sharers != 0 {
			// Instant, free invalidation of every sharer.
			for core := 0; core < c.Cfg.NumSMs; core++ {
				if sharers&(1<<uint(core)) != 0 {
					c.zap(core, m.Line)
				}
			}
		}
		e.Meta.Sharers = 0
		c.performWrite(m, &e.Meta, now)
		c.Pool.Put(m)
		c.tags.Touch(e)
		return
	}
	// Invalidate every sharer; the write completes when all ack.
	c.Tr.L2State(now, c.Part, m.Line, "inv-round", 0, 0)
	w := &invWait{write: m, started: now}
	c.invs[m.Line] = w
	for core := 0; core < c.Cfg.NumSMs; core++ {
		if sharers&(1<<uint(core)) != 0 {
			w.pending++
			inv := c.Pool.Get()
			*inv = coherence.Msg{
				Type: coherence.Inv,
				Line: m.Line,
				Src:  c.ID,
				Dst:  core,
			}
			c.Port.Send(inv, now)
		}
	}
	e.Meta.Sharers = 0
}

func (c *L2) performWrite(m *coherence.Msg, l *l2Line, now timing.Cycle) {
	c.Heat.Add(m.Line, obs.HeatWrites, m.Src)
	old := l.Val
	if m.Type == coherence.AtomicReq {
		l.Val = old + m.Val
		c.Tr.L2State(now, c.Part, m.Line, "atomic", 0, 0)
	} else {
		l.Val = m.Val
		c.Tr.L2State(now, c.Part, m.Line, "write", 0, 0)
	}
	l.Dirty = true
	resp := c.Pool.Get()
	*resp = coherence.Msg{
		Type:  coherence.Ack,
		Line:  m.Line,
		Src:   c.ID,
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
	c.Port.Send(resp, now)
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
			c.Sp.Mark(w.write.Span, span.SegProto, now)
			c.Sp.AddChild(w.write.Span, "inv-wait", w.started, now)
		}
		if e := c.tags.Lookup(m.Line); e != nil {
			c.St.L2Accesses++
			c.performWrite(w.write, &e.Meta, now)
			c.Pool.Put(w.write)
			c.tags.Touch(e)
		} else if !c.handle(w.write, now) {
			c.Defer(w.write)
		}
	}
	// Recall rounds (write == nil) leave the line clean of sharers; the
	// stalled fill retries and can now evict it.
	for _, q := range w.queued {
		if q.Span != 0 {
			// Queued behind the round: protocol blame, not pipe time.
			c.Sp.Mark(q.Span, span.SegProto, now)
		}
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
		// An absent block has no sharers (recalls keep the L1s within
		// the directory's reach), so the write is globally visible the
		// moment it is ordered here: merge it and ack immediately.
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
			Span:  m.Span,
		}
		c.Port.Send(ack, now)
		c.Pool.Put(m)
	default:
		mshr.stalled = append(mshr.stalled, m) // atomics need the old value
	}
	return true
}

// fill installs a DRAM fetch. A victim still cached by L1s must be
// recalled: its copies are invalidated and, until every ack returns, the
// victim's address is owned by the invalidation round (any request for it
// queues). These recall rounds are a significant MESI cost on GPUs.
func (c *L2) fill(line uint64, now timing.Cycle) {
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
		c.St.L2Evictions++
		if victim.Meta.Sharers != 0 {
			c.recall(victim.Tag, victim.Meta.Sharers, now)
		}
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
	for _, r := range mshr.readers {
		l.Sharers |= 1 << uint(r.Src)
		if r.Span != 0 {
			c.Sp.Mark(r.Span, span.SegDRAM, now)
		}
		resp := c.Pool.Get()
		*resp = coherence.Msg{
			Type: coherence.Data,
			Line: line,
			Src:  c.ID,
			Dst:  r.Src,
			Val:  l.Val,
			Span: r.Span,
		}
		c.Port.Send(resp, now)
		c.Pool.Put(r)
	}
	mshr.readers = mshr.readers[:0]
	stalled := mshr.stalled
	c.mshrs.Free(line)
	for _, s := range stalled {
		if s.Span != 0 {
			c.Sp.Mark(s.Span, span.SegDRAM, now)
		}
		if !c.handle(s, now) {
			c.Defer(s)
		}
	}
}

// recall invalidates every L1 copy of an evicted block; until the acks
// return, the address belongs to the invalidation round.
func (c *L2) recall(line, sharers uint64, now timing.Cycle) {
	c.St.Recalls++
	c.Tr.L2State(now, c.Part, line, "recall", 0, 0)
	if c.ideal {
		for core := 0; core < c.Cfg.NumSMs; core++ {
			if sharers&(1<<uint(core)) != 0 {
				c.zap(core, line)
			}
		}
		return
	}
	w := &invWait{}
	c.invs[line] = w
	for core := 0; core < c.Cfg.NumSMs; core++ {
		if sharers&(1<<uint(core)) != 0 {
			w.pending++
			inv := c.Pool.Get()
			*inv = coherence.Msg{
				Type: coherence.Inv,
				Line: line,
				Src:  c.ID,
				Dst:  core,
			}
			c.Port.Send(inv, now)
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
	next := timing.Min(c.L2.NextEvent(now), c.mpipe.NextReady())
	return timing.Min(next, c.fillRetry.NextReady())
}

// Drained implements coherence.L2.
func (c *L2) Drained() bool {
	return c.Idle() && c.mpipe.Len() == 0 && len(c.invs) == 0 &&
		c.mshrs.Len() == 0 && c.fillRetry.Len() == 0
}
