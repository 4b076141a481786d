package mem

import (
	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
)

// DRAMReq is one line-granularity DRAM access.
type DRAMReq struct {
	Line  uint64
	Write bool
	ID    uint64 // caller token, returned on completion
	Span  uint64 // causal-span ID of the op this access serves (0 = untracked)
}

// dramBank is one bank's row state plus its request queue: a FIFO chain
// (submit order, which within a bank is also arrival order) of indices into
// the channel's node slab, 0 = empty.
type dramBank struct {
	openRow    uint64
	hasOpen    bool
	busyUntil  timing.Cycle
	head, tail int32
}

// dramNode is one queued request. next links the bank's chain while
// queued and the free list once issued.
type dramNode struct {
	req     DRAMReq
	row     uint64
	arrival timing.Cycle
	seq     uint64 // channel-wide submit order
	next    int32
}

// DRAM models one GDDR channel attached to one L2 partition: banks with
// open-row state, a shared data bus, a fixed pipe latency to/from the L2,
// and an FR-FCFS scheduler (Table III): each cycle the controller issues
// the oldest row-hit request whose bank is ready, falling back to the
// oldest ready request, so streams keep their row locality even when many
// warps interleave. Each bank keeps its own FIFO queue, so a scheduling
// decision visits banks rather than every queued request.
type DRAM struct {
	cfg      config.Config
	banks    []dramBank
	busFree  timing.Cycle
	nodes    []dramNode // slab; nodes[0] is the nil sentinel
	free     int32      // head of the free-node list (0 = empty)
	queued   int        // requests waiting in bank queues
	seq      uint64     // submit counter
	done     timing.Calendar[DRAMReq]
	st       *stats.Run
	rowLines uint64
	lastTick timing.Cycle

	// nextTry caches the earliest cycle at which a queued request could
	// issue, computed by a failed schedule scan. Bank, bus, and row state
	// change only when a command issues (or a request arrives), and both
	// paths reset the cache, so skipping scans before nextTry is exact.
	// Zero means unknown (scan on the next call).
	nextTry timing.Cycle

	// Part is the L2 partition this channel belongs to, which labels its
	// trace events; its owner sets it (the channel itself doesn't know).
	Part int
	trace.Observers
}

// NewDRAM builds a channel using the DRAM parameters in cfg.
func NewDRAM(cfg config.Config, st *stats.Run) *DRAM {
	d := &DRAM{
		cfg:      cfg,
		banks:    make([]dramBank, cfg.DRAMBanksPerPart),
		st:       st,
		rowLines: uint64(cfg.DRAMRowLines),
	}
	// Completions sit an access latency past issue; size the ring for that
	// horizon (backlog-driven spans beyond it grow the ring on demand).
	d.done.Reserve(int(cfg.DRAMtRP+cfg.DRAMtRCD+cfg.DRAMtCL+2*cfg.DRAMPipeLatency) + 64)
	d.Reset()
	return d
}

// Reset empties the channel and closes every row, keeping the bank
// array, node slab and completion ring, and detaches the observers.
func (d *DRAM) Reset() {
	clear(d.banks)
	d.busFree = 0
	if d.nodes != nil {
		clear(d.nodes)
		d.nodes = d.nodes[:1]
	}
	d.free, d.queued, d.seq = 0, 0, 0
	d.done.Reset()
	d.lastTick = timing.Never // so the first Tick, even at cycle 0, schedules
	d.nextTry = 0
	d.Observers = trace.Observers{}
}

// Submit enqueues req at cycle now; the scheduler issues it later. Calls
// must not go back in time: a request that would arrive before its bank's
// last queued request panics, since each bank queue relies on submit order
// being arrival order.
func (d *DRAM) Submit(req DRAMReq, now timing.Cycle) {
	row := req.Line / d.rowLines
	bank := int(row % uint64(len(d.banks)))
	arrival := now + timing.Cycle(d.cfg.DRAMPipeLatency)
	d.enqueue(bank, row/uint64(len(d.banks)), arrival, req)
	// The new request can issue no earlier than max(arrival, bank ready);
	// folding that bound into nextTry keeps the cache exact without
	// forcing a rescan (bank/bus state changes still reset it).
	if t := timing.Max(arrival, d.banks[bank].busyUntil); d.nextTry > 0 && t < d.nextTry {
		d.nextTry = t
	}
	// Opportunistically schedule so single-request callers need no Tick.
	d.schedule(now)
}

// enqueue appends a request to the tail of bank's queue. The slab starts
// on first use with room for one request beside its sentinel and grows
// with the peak number of queued requests.
func (d *DRAM) enqueue(bank int, row uint64, arrival timing.Cycle, req DRAMReq) {
	b := &d.banks[bank]
	if b.tail != 0 && arrival < d.nodes[b.tail].arrival {
		panic("mem: DRAM request submitted out of arrival order")
	}
	d.seq++
	nd := dramNode{req: req, row: row, arrival: arrival, seq: d.seq}
	n := d.free
	if n != 0 {
		d.free = d.nodes[n].next
		d.nodes[n] = nd
	} else {
		if d.nodes == nil {
			d.nodes = make([]dramNode, 1, 2)
		}
		n = int32(len(d.nodes))
		d.nodes = append(d.nodes, nd)
	}
	if b.head == 0 {
		b.head = n
	} else {
		d.nodes[b.tail].next = n
	}
	b.tail = n
	d.queued++
}

// Tick lets the controller issue at most one command per cycle: repeated
// calls with the same now are no-ops (lastTick starts at timing.Never, so
// the guard cannot mistake cycle 0 for "already ticked").
func (d *DRAM) Tick(now timing.Cycle) bool {
	if now == d.lastTick {
		return false
	}
	d.lastTick = now
	return d.schedule(now)
}

// schedule issues at most one command (FR-FCFS: oldest row hit on a ready
// bank first, else oldest request on a ready bank). Within a bank, queue
// order is submit order and arrivals are nondecreasing, so a bank that is
// busy or whose head has not arrived holds nothing ready, a ready bank's
// oldest ready request is its head, and its oldest ready row hit is the
// first hit in the chain before any request that has not arrived.
func (d *DRAM) schedule(now timing.Cycle) bool {
	if d.nextTry > now {
		return false
	}
	const none = -1
	hitBank, hitPrev, hitNode := none, int32(0), int32(0)
	headBank := none
	var hitSeq, headSeq uint64
	earliest := timing.Never
	for i := range d.banks {
		b := &d.banks[i]
		if b.head == 0 {
			continue
		}
		h := &d.nodes[b.head]
		if h.arrival > now || b.busyUntil > now {
			if t := timing.Max(h.arrival, b.busyUntil); t < earliest {
				earliest = t
			}
			continue
		}
		if headBank == none || h.seq < headSeq {
			headBank, headSeq = i, h.seq
		}
		if !b.hasOpen {
			continue
		}
		prev := int32(0)
		for n := b.head; n != 0; prev, n = n, d.nodes[n].next {
			p := &d.nodes[n]
			if p.arrival > now || (hitBank != none && p.seq > hitSeq) {
				break
			}
			if p.row == b.openRow {
				hitBank, hitPrev, hitNode, hitSeq = i, prev, n, p.seq
				break
			}
		}
	}
	if headBank == none {
		d.nextTry = earliest
		return false
	}
	d.nextTry = 0
	bank, prev, n := hitBank, hitPrev, hitNode
	if bank == none {
		bank, prev, n = headBank, 0, d.banks[headBank].head
	}
	b := &d.banks[bank]
	p := d.nodes[n]
	if prev == 0 {
		b.head = p.next
	} else {
		d.nodes[prev].next = p.next
	}
	if b.tail == n {
		b.tail = prev
	}
	d.nodes[n] = dramNode{next: d.free}
	d.free = n
	d.queued--

	var access timing.Cycle
	rowHit := b.hasOpen && b.openRow == p.row
	if rowHit {
		access = timing.Cycle(d.cfg.DRAMtCL)
		d.st.DRAMRowHits++
	} else {
		access = timing.Cycle(d.cfg.DRAMtRP + d.cfg.DRAMtRCD + d.cfg.DRAMtCL)
		d.st.DRAMRowMisses++
		b.hasOpen = true
		b.openRow = p.row
	}
	if d.Tr != nil {
		label := "read-miss"
		switch {
		case p.req.Write && rowHit:
			label = "write-hit"
		case p.req.Write:
			label = "write-miss"
		case rowHit:
			label = "read-hit"
		}
		d.Tr.DRAMOp(now, d.Part, p.req.Line, label)
	}
	dataStart := timing.Max(now+access, d.busFree)
	dataEnd := dataStart + timing.Cycle(d.cfg.DRAMBusCycles)
	d.busFree = dataEnd
	b.busyUntil = dataEnd
	completion := dataEnd + timing.Cycle(d.cfg.DRAMPipeLatency)

	if p.req.Write {
		d.st.DRAMWrites++
	} else {
		d.st.DRAMReads++
	}
	if p.req.Span != 0 {
		why := "dram-row-miss"
		if rowHit {
			why = "dram-row-hit"
		}
		d.Sp.AddChild(p.req.Span, why, p.arrival, completion)
	}
	d.done.Push(completion, p.req)
	return true
}

// PopDone returns the next completed request at cycle now, if any.
func (d *DRAM) PopDone(now timing.Cycle) (DRAMReq, bool) {
	return d.done.PopReady(now)
}

// NextEvent returns the earliest cycle at which the channel needs service:
// a completion, or a schedulable queued request.
func (d *DRAM) NextEvent() timing.Cycle {
	next := d.done.NextReady()
	if d.queued == 0 {
		return next
	}
	if d.nextTry > 0 {
		return timing.Min(next, d.nextTry)
	}
	// A bank's head has its earliest arrival, so the heads bound it all.
	for i := range d.banks {
		if b := &d.banks[i]; b.head != 0 {
			next = timing.Min(next, timing.Max(d.nodes[b.head].arrival, b.busyUntil))
		}
	}
	return next
}

// Pending reports the number of in-flight requests (queued or issued).
func (d *DRAM) Pending() int { return d.queued + d.done.Len() }
