// Package ctl is the cache-controller skeleton every protocol shares. The
// paper compares MESI, TC-Strong/Weak and RCC on one cache substrate where
// only the coherence state machine differs; this package is that
// substrate. A protocol's L1 embeds L1 and its L2 embeds L2, by value, and
// keeps only its state machine: tag and MSHR metadata, message handlers,
// and whatever its Tick does between the shared steps.
//
//   - Node holds what every controller has: config, node id, port,
//     counters, message pool and the embedded trace.Observers (tracer,
//     contention sketch, span recorder), set together by the promoted
//     SetObservers.
//   - L1 adds the inbox, the completion sink and the wake that tells the
//     SM a refused access may now succeed.
//   - L2 adds the access pipe, the deferred list, the DRAM channel and the
//     one-request-per-cycle service policy.
//
// It cannot live in package coherence itself: trace imports coherence for
// *coherence.Msg, so a *trace.Bus field there would be an import cycle.
package ctl

import (
	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
)

// Node is the state every controller shares. The pool and observers are
// nil until attached: a nil pool allocates, nil observers are off.
type Node struct {
	Cfg  config.Config
	ID   int // interconnect node id: the SM id for an L1
	Port coherence.Port
	St   *stats.Run
	Pool *coherence.MsgPool
	trace.Observers
}

// SetMsgPool attaches the machine's message free list (nil keeps plain
// allocation).
func (n *Node) SetMsgPool(p *coherence.MsgPool) { n.Pool = p }

// L2Node returns the interconnect node id of the partition that owns line.
func (n *Node) L2Node(line uint64) int {
	return coherence.L2NodeID(coherence.PartitionOf(line, n.Cfg.L2Partitions), n.Cfg.NumSMs)
}

// L1Tags returns an empty tag array of the configured L1 geometry. Its
// set-index closure, like L2Tags', captures the geometry only: capturing
// cfg would move a copy of the whole Config to the heap per controller.
func L1Tags[M any](cfg config.Config) *mem.Array[M] {
	sets := cfg.L1Sets
	return mem.NewArray[M](sets, cfg.L1Ways, func(l uint64) int { return coherence.L1SetIndex(l, sets) })
}

// L2Tags returns an empty tag array of the configured L2 partition
// geometry.
func L2Tags[M any](cfg config.Config) *mem.Array[M] {
	parts, sets := cfg.L2Partitions, cfg.L2SetsPerPart
	return mem.NewArray[M](sets, cfg.L2Ways, func(l uint64) int { return coherence.L2SetIndex(l, parts, sets) })
}

// L1 is the shared half of a private-cache controller: delivered messages
// wait in the inbox until the next Tick drains them all.
type L1 struct {
	Node
	sink   coherence.Sink
	wake   func() // the sink's Wake, when it implements coherence.Waker
	inbox  []*coherence.Msg
	inHead int // next inbox element to drain (the slice is reused, not re-sliced)
}

// NewL1 returns the shared state of SM id's L1. The sink is set later with
// SetSink: the SM and its L1 reference each other.
func NewL1(cfg config.Config, id int, port coherence.Port, st *stats.Run) L1 {
	return L1{Node: Node{Cfg: cfg, ID: id, Port: port, St: st}}
}

// Reset drops any undelivered inbox messages and detaches the observers;
// the sink stays wired. A protocol's Reset calls it.
func (c *L1) Reset() {
	c.Observers = trace.Observers{}
	clear(c.inbox)
	c.inbox = c.inbox[:0]
	c.inHead = 0
}

// SetSink implements coherence.L1.
func (c *L1) SetSink(s coherence.Sink) {
	c.sink = s
	if w, ok := s.(coherence.Waker); ok {
		c.wake = w.Wake
	} else {
		c.wake = nil
	}
}

// Complete finishes request r with result data.
func (c *L1) Complete(r *coherence.Request, data uint64, now timing.Cycle) {
	r.Data = data
	c.sink.MemDone(r, now)
}

// Deliver implements coherence.L1. The delivery timestamp is unused: the
// inbox is drained in full on the next Tick.
func (c *L1) Deliver(m *coherence.Msg, at timing.Cycle) { c.inbox = append(c.inbox, m) }

// Idle reports whether the inbox is empty.
func (c *L1) Idle() bool { return c.inHead >= len(c.inbox) }

// NextEvent implements coherence.L1 for a controller whose only work is
// its inbox.
func (c *L1) NextEvent(now timing.Cycle) timing.Cycle {
	if c.Idle() {
		return timing.Never
	}
	return now
}

// Drain ends a Tick: it passes every inbox message to handle in arrival
// order and returns each to the pool afterwards. did says whether the Tick
// already did other work; the result says whether it did any. A Tick that
// did work wakes the sink — the coherence.Waker contract, kept here and
// nowhere else.
func (c *L1) Drain(now timing.Cycle, did bool, handle func(*coherence.Msg, timing.Cycle)) bool {
	for c.inHead < len(c.inbox) {
		m := c.inbox[c.inHead]
		c.inbox[c.inHead] = nil
		c.inHead++
		handle(m, now)
		c.Pool.Put(m)
		did = true
	}
	c.inbox = c.inbox[:0]
	c.inHead = 0
	if did && c.wake != nil {
		c.wake()
	}
	return did
}

// L2 is the shared half of a shared-cache partition: requests pass an
// access pipe of fixed latency, and one is serviced per cycle, a refused
// request waiting on the deferred list ahead of everything behind it.
type L2 struct {
	Node
	Part    int // partition index
	DRAM    *mem.DRAM
	Backing *mem.Backing

	pipe timing.Pipe[*coherence.Msg] // models the access pipeline

	// deferred[dHead:] are the refused requests, retried head first. The
	// list is reused: it returns to deferred[:0] whenever it drains, and
	// Defer compacts the live window to the front before growing it.
	deferred []*coherence.Msg
	dHead    int
	// parked is set while the deferred head waits for an event: it was
	// refused on its last try (see Serve).
	parked bool
}

// NewL2 returns the shared state of partition part.
func NewL2(cfg config.Config, part int, port coherence.Port, st *stats.Run, dram *mem.DRAM, backing *mem.Backing) L2 {
	return L2{
		Node:    Node{Cfg: cfg, ID: coherence.L2NodeID(part, cfg.NumSMs), Port: port, St: st},
		Part:    part,
		DRAM:    dram,
		Backing: backing,
	}
}

// Reset empties the access pipe and the deferred list and detaches the
// observers; the DRAM channel and backing image are reset by their owner.
// A protocol's Reset calls it.
func (c *L2) Reset() {
	c.Observers = trace.Observers{}
	c.pipe.Reset()
	clear(c.deferred)
	c.deferred, c.dHead, c.parked = c.deferred[:0], 0, false
}

// Deliver implements coherence.L2: requests enter the access pipe at the
// delivery timestamp supplied by the interconnect.
func (c *L2) Deliver(m *coherence.Msg, at timing.Cycle) {
	c.pipe.Push(at+timing.Cycle(c.Cfg.L2Latency), m)
}

// Defer queues m behind the requests already refused, for Serve to retry.
func (c *L2) Defer(m *coherence.Msg) {
	if len(c.deferred) == cap(c.deferred) && c.dHead > 0 {
		n := copy(c.deferred, c.deferred[c.dHead:])
		clear(c.deferred[n:])
		c.deferred, c.dHead = c.deferred[:n], 0
	}
	c.deferred = append(c.deferred, m)
}

// DrainDRAM starts a Tick: it ticks the DRAM channel and passes the line
// of every completed fetch to fill; a completed write-back needs nothing.
// It reports whether anything happened.
func (c *L2) DrainDRAM(now timing.Cycle, fill func(line uint64, now timing.Cycle)) bool {
	did := c.DRAM.Tick(now)
	for {
		req, ok := c.DRAM.PopDone(now)
		if !ok {
			return did
		}
		if !req.Write {
			fill(req.Line, now)
		}
		did = true
	}
}

// Serve services at most one request: the oldest deferred one while any
// wait, else the next pipe entry ready at now. handle reports whether it
// took the request. A refused pipe entry is deferred and still counts as
// work; a refused deferred head stays first and does not.
//
// A refusal parks the partition: NextEvent stops asking for the next cycle
// and stops counting the pipe, which Serve cannot reach behind the head, so
// the partition sleeps until a DRAM event, one of its protocol's own queues
// or a rollover wakes it, and every Tick that reaches Serve retries the
// head on that same cycle. This rests on handle's contract: whether it
// refuses a request depends only on the request and on partition state
// that changes inside the partition's own Tick (a DRAM fill freeing an
// MSHR, raising mnow or installing a line) or at a rollover (Requeue,
// then the thaw). The refusals today are a full MSHR table (every
// protocol) and RCC's rollover guards; a retry on any other cycle would
// be refused again and change nothing.
func (c *L2) Serve(now timing.Cycle, handle func(*coherence.Msg, timing.Cycle) bool) bool {
	if len(c.deferred) > 0 {
		if c.parked = !handle(c.deferred[c.dHead], now); c.parked {
			return false
		}
		c.deferred[c.dHead] = nil
		if c.dHead++; c.dHead == len(c.deferred) {
			c.deferred, c.dHead = c.deferred[:0], 0
		}
		return true
	}
	m, ok := c.pipe.PopReady(now)
	if !ok {
		return false
	}
	if !handle(m, now) {
		c.Defer(m)
		c.parked = true
	}
	return true
}

// Parked reports whether a refused request waits at the head of the
// deferred list for an event (see Serve).
func (c *L2) Parked() bool { return c.parked }

// Requeue applies fn to every queued request, deferred or in the pipe,
// and makes every pipe entry ready at now, keeping their order. The RCC
// timestamp rollover rewrites queued requests this way.
func (c *L2) Requeue(now timing.Cycle, fn func(*coherence.Msg)) {
	// fn rewrites the deferred requests, so the head may now be taken.
	c.parked = false
	for _, m := range c.deferred[c.dHead:] {
		fn(m)
	}
	queued := c.pipe
	c.pipe = timing.Pipe[*coherence.Msg]{}
	for {
		m, ok := queued.PopReady(timing.Never - 1)
		if !ok {
			return
		}
		fn(m)
		c.pipe.Push(now, m)
	}
}

// NextEvent returns the earliest cycle at which DrainDRAM or Serve could do
// work: a DRAM event, a ready pipe entry, or the next cycle while requests
// are deferred; a parked partition waits for its DRAM channel alone (see
// Serve).
func (c *L2) NextEvent(now timing.Cycle) timing.Cycle {
	if c.parked {
		return c.DRAM.NextEvent()
	}
	next := timing.Min(c.DRAM.NextEvent(), c.pipe.NextReady())
	if len(c.deferred) > 0 {
		next = timing.Min(next, now+1)
	}
	return next
}

// Idle reports whether the pipe, the deferred list and the DRAM channel
// are all empty.
func (c *L2) Idle() bool {
	return c.pipe.Len() == 0 && len(c.deferred) == 0 && c.DRAM.Pending() == 0
}
