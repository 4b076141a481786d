// Package noc models the GPU's on-chip interconnect: one crossbar per
// direction (L1→L2 requests, L2→L1 responses) with 32-bit flits moving at
// 700 MHz (one flit per two core cycles per port), a fixed router pipeline
// latency, and per-port serialization in both the injecting and ejecting
// direction. Flit counts per message class feed the Fig 9b/9c traffic and
// energy results.
package noc

import (
	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
)

// Node receives delivered messages. at is the delivery cycle itself: the
// cycle the message's tail flit cleared the ejection port. Receivers that
// stamp pipeline entry (the L2s) therefore see the same timestamp
// regardless of which cycles the run loop happened to visit. The run loop's
// idle jumps rely on this: they may land early, and an extra visited cycle
// must not change what any receiver records.
type Node interface {
	Deliver(m *coherence.Msg, at timing.Cycle)
}

// Network is the pair of crossbars. Node ids 0..NumSMs-1 are L1s;
// NumSMs..NumSMs+L2Partitions-1 are L2 partitions. Direction is inferred
// from the source id.
type Network struct {
	cfg   config.Config
	st    *stats.Run
	nodes []Node
	trace.Observers

	// Per-port busy-until times, separately for the request direction
	// (L1 source ports, L2 sink ports) and the response direction.
	reqSrcFree []timing.Cycle // indexed by SM id
	reqDstFree []timing.Cycle // indexed by partition
	rspSrcFree []timing.Cycle // indexed by partition
	rspDstFree []timing.Cycle // indexed by SM id

	inflight timing.Calendar[*coherence.Msg]

	chooser DelayChooser // nil: no extra pipeline delay

	// onDeliver, when set, is called after each delivery so the run loop
	// can re-arm the destination's wake time.
	onDeliver func(dst int, now timing.Cycle)
}

// DelayChooser resolves the extra router-pipeline delay of one message,
// the one way to perturb NoC timing: the fuzzer draws it from a seeded
// stream, the model checker from a choice vector. It is called exactly
// once per Send, in send order, which is what lets a model checker replay
// a prefix of choices deterministically and branch on the suffix.
type DelayChooser func() uint64

// New builds the interconnect for cfg.
func New(cfg config.Config, st *stats.Run) *Network {
	total := cfg.NumSMs + cfg.L2Partitions
	n := &Network{
		cfg:        cfg,
		st:         st,
		nodes:      make([]Node, total),
		reqSrcFree: make([]timing.Cycle, cfg.NumSMs),
		reqDstFree: make([]timing.Cycle, cfg.L2Partitions),
		rspSrcFree: make([]timing.Cycle, cfg.L2Partitions),
		rspDstFree: make([]timing.Cycle, cfg.NumSMs),
	}
	// Size the in-flight ring for an unloaded pipe traversal; it grows
	// under congestion or long chosen delays.
	n.inflight.Reserve(int(cfg.NoCPipeLatency) + 128)
	n.Reset()
	return n
}

// Reset drops every in-flight message, frees every port and detaches the
// delay chooser and the observers, keeping the registered nodes, the wake
// callback and every allocation.
func (n *Network) Reset() {
	clear(n.reqSrcFree)
	clear(n.reqDstFree)
	clear(n.rspSrcFree)
	clear(n.rspDstFree)
	n.inflight.Reset()
	n.chooser = nil
	n.Observers = trace.Observers{}
}

// Register attaches the receiver for node id.
func (n *Network) Register(id int, node Node) { n.nodes[id] = node }

// SetChooser attaches a delay chooser; nil sends every message with no
// extra delay. Attach before the first Send.
func (n *Network) SetChooser(fn DelayChooser) { n.chooser = fn }

// FoldInflight calls fn for every in-flight message, in exact delivery
// order — (delivery cycle, send order), the order Tick will deliver them.
// The model checker hashes the pending delivery schedule into its state
// fingerprint so two states that differ only in when a message will land
// never merge.
func (n *Network) FoldInflight(fn func(at timing.Cycle, m *coherence.Msg)) {
	n.inflight.Fold(fn)
}

// Send injects m at cycle now. Delivery happens via Tick once the message
// has traversed injection serialization, the router pipeline, and ejection
// serialization.
func (n *Network) Send(m *coherence.Msg, now timing.Cycle) {
	flits := coherence.Flits(&n.cfg, m)
	n.st.Traffic(m.Type.Class(), flits)
	n.Tr.MsgSend(now, m, flits)

	ser := n.serialization(flits)
	pipe := timing.Cycle(n.cfg.NoCPipeLatency)
	if n.chooser != nil {
		pipe += timing.Cycle(n.chooser())
	}

	var srcFree, dstFree *timing.Cycle
	if m.Src < n.cfg.NumSMs {
		srcFree = &n.reqSrcFree[m.Src]
		dstFree = &n.reqDstFree[m.Dst-n.cfg.NumSMs]
	} else {
		srcFree = &n.rspSrcFree[m.Src-n.cfg.NumSMs]
		dstFree = &n.rspDstFree[m.Dst]
	}

	startTx := timing.Max(now, *srcFree)
	endTx := startTx + ser
	*srcFree = endTx

	// The head flit reaches the ejection port after the pipeline; the
	// tail must also clear ejection-port serialization, which may be
	// backed up by earlier messages to the same destination.
	arrive := endTx + pipe
	deliver := timing.Max(arrive, *dstFree+ser)
	*dstFree = deliver

	if m.Span != 0 {
		// Pre-marking at future timestamps is safe: no component
		// touches this span again before the delivery cycle, and the
		// telescoping rule is monotone in `last` anyway.
		if m.Src < n.cfg.NumSMs {
			n.Sp.Mark(m.Span, span.SegNoCReqQueue, startTx)
			n.Sp.Mark(m.Span, span.SegNoCReqWire, deliver)
		} else {
			n.Sp.Mark(m.Span, span.SegNoCRspQueue, startTx)
			n.Sp.Mark(m.Span, span.SegNoCRspWire, deliver)
		}
	}

	n.inflight.Push(deliver, m)
}

// SetWake attaches a per-delivery callback used by the run loop to re-arm
// the destination component's wake time.
func (n *Network) SetWake(fn func(dst int, now timing.Cycle)) { n.onDeliver = fn }

// Tick delivers every message that has arrived by cycle now. Receivers
// are handed the delivery cycle itself, so delivery timestamps are a pure
// function of the message stream — independent of which cycles the run
// loop visited in between.
func (n *Network) Tick(now timing.Cycle) bool {
	did := false
	for {
		m, ok := n.inflight.PopReady(now)
		if !ok {
			return did
		}
		did = true
		n.Tr.MsgRecv(now, m)
		n.nodes[m.Dst].Deliver(m, now)
		if n.onDeliver != nil {
			n.onDeliver(m.Dst, now)
		}
	}
}

// NextEvent returns the earliest pending delivery time.
func (n *Network) NextEvent() timing.Cycle { return n.inflight.NextReady() }

// Drained reports whether no messages are in flight.
func (n *Network) Drained() bool { return n.inflight.Len() == 0 }

// InFlight reports the number of messages sent but not yet delivered.
func (n *Network) InFlight() int { return n.inflight.Len() }

// serialization returns the cycles a message of the given flit count
// occupies one port.
func (n *Network) serialization(flits int) timing.Cycle {
	per := n.cfg.PortFlitsPerCycle
	return timing.Cycle((flits + per - 1) / per)
}

// MinLatency returns the unloaded one-way latency of a message with the
// given flit count (used by tests to calibrate round trips).
func (n *Network) MinLatency(flits int) timing.Cycle {
	return n.serialization(flits) + timing.Cycle(n.cfg.NoCPipeLatency)
}
