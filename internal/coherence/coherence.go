// Package coherence defines the vocabulary shared by every protocol in the
// simulator: the coherence message types exchanged between L1s and L2
// partitions, the warp-level memory request that SMs hand to their L1
// controller, and the controller interfaces the machine assembles.
//
// Concrete protocols live in internal/core (RCC — the paper's
// contribution), internal/coherence/mesi (MESI, and SC-IDEAL as MESI with
// ideal=true) and internal/coherence/tc (TC-Strong and TC-Weak). They share
// one controller skeleton, internal/coherence/ctl.
package coherence

import (
	"fmt"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// MsgType enumerates the coherence messages used across all protocols.
// Individual protocols use a subset.
type MsgType uint8

const (
	// GetS requests a readable copy of a line. In RCC it carries the
	// requesting core's logical clock (Now) and, for the renewal
	// mechanism, the expiration time of the requester's stale copy (Exp).
	GetS MsgType = iota
	// Write is a write-through store request carrying the line data.
	Write
	// AtomicReq is a read-modify-write performed at the L2.
	AtomicReq
	// Data is a full-line response. In timestamp protocols it carries the
	// lease expiration (Exp) and the block version (Ver).
	Data
	// Renew is the RCC lease-extension grant: a new expiration time with
	// no data payload (Sec. III-E).
	Renew
	// Ack acknowledges a Write or AtomicReq. In RCC it carries the
	// logical write time (Ver); in TC-Weak the global write completion
	// time (Exp = GWCT); atomic acks also carry the old value (Val).
	Ack
	// Inv invalidates an L1 copy (MESI stores and L2 recalls).
	Inv
	// InvAck acknowledges an Inv.
	InvAck
	// FlushReq asks an L1 to zero its clock and invalidate everything
	// (RCC timestamp rollover, Sec. III-D).
	FlushReq
	// FlushAck acknowledges a FlushReq.
	FlushAck
	// PutS notifies the directory that an L1 evicted a shared line
	// (MESI only; timestamp protocols self-invalidate silently).
	PutS
	// WBAck acknowledges a PutS.
	WBAck
)

var msgNames = [...]string{
	GetS: "GETS", Write: "WRITE", AtomicReq: "ATOMIC", Data: "DATA",
	Renew: "RENEW", Ack: "ACK", Inv: "INV", InvAck: "INVACK",
	FlushReq: "FLUSH", FlushAck: "FLUSHACK", PutS: "PUTS", WBAck: "WBACK",
}

// String returns the protocol-literature name of the message type.
func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", int(t))
}

// Class maps a message type to its traffic-accounting class (Fig 9c).
func (t MsgType) Class() stats.MsgClass {
	switch t {
	case GetS:
		return stats.MsgReq
	case Write, AtomicReq:
		return stats.MsgStData
	case Data:
		return stats.MsgLdData
	case Ack:
		return stats.MsgAckCtl
	case Renew:
		return stats.MsgRenewCt
	case Inv, InvAck, PutS, WBAck:
		return stats.MsgInvCtl
	default:
		return stats.MsgFlushCt
	}
}

// CarriesData reports whether the message includes a full cache line and
// therefore uses the large flit size.
func (t MsgType) CarriesData() bool {
	return t == Write || t == AtomicReq || t == Data
}

// Msg is one coherence message in flight between an L1 (node id = SM id)
// and an L2 partition (node id = NumSMs + partition).
type Msg struct {
	Type MsgType
	Line uint64 // line address
	Src  int    // source node id
	Dst  int    // destination node id

	ReqID uint64 // request token, echoed in responses
	Warp  int    // originating warp (core-local), echoed in responses

	// Span is the causal-span ID (== the tracked request's ID) carried
	// so the NoC and L2 can blame their cycles on the right op; zero
	// means untracked, which is the case whenever span recording is
	// off. Requests stamp it at the L1, responses echo it. Exactly one
	// message chain per span carries it at a time (invalidation and
	// flush fan-outs keep zero), so segment marks never interleave.
	Span uint64

	// Timestamp payloads; logical (RCC) or physical (TC) per protocol.
	Now uint64
	Exp uint64
	Ver uint64

	Val    uint64 // line value (one value per line; see DESIGN.md)
	Atomic bool   // distinguishes atomic acks/data from plain ones
}

// MsgPool is a free list of Msg objects shared by every controller of one
// machine. A machine is single-goroutine internally, so the pool needs no
// synchronization. Ownership rule: whoever consumes a message terminally
// (the handler that neither retains nor forwards it) returns it with Put;
// a recycled Msg is handed out dirty, so Get callers must overwrite the
// whole struct. All methods are nil-receiver safe — a nil pool degrades to
// plain allocation, which standalone controllers (tests, walkthroughs)
// rely on.
type MsgPool struct {
	free []*Msg
}

// Get returns a Msg with unspecified contents; assign a full struct
// literal before use.
func (p *MsgPool) Get() *Msg {
	if p == nil || len(p.free) == 0 {
		return new(Msg)
	}
	n := len(p.free) - 1
	m := p.free[n]
	p.free[n] = nil
	p.free = p.free[:n]
	return m
}

// Put recycles a message the caller owns. The caller must not touch m
// afterwards.
func (p *MsgPool) Put(m *Msg) {
	if p == nil || m == nil {
		return
	}
	p.free = append(p.free, m)
}

// Request is one warp-level, line-granularity memory access from an SM to
// its L1 controller. A warp memory instruction may fan out into several
// Requests (memory divergence); the SM counts them back in.
type Request struct {
	ID    uint64
	Class stats.OpClass
	Line  uint64
	Val   uint64 // store value / atomic operand
	Issue timing.Cycle

	// Span is the causal-span ID: ID when the span recorder's Start
	// tracked the op, else 0. The SM sets it; controllers test it
	// instead of asking the recorder, so an untracked op costs no
	// recorder call at any hop.
	Span uint64

	// Warp is the originating warp, core-local. It and Slot take 32 bits
	// each, so a Request fills one 64-byte cache line.
	Warp int32
	// Slot is an issuer-private token echoed back at completion (the SM
	// uses it to find the warp-instruction tracker without a map lookup).
	// Controllers must preserve it and never interpret it.
	Slot int32

	// Result, filled in before MemDone.
	Data uint64
}

// Sink receives completions of Requests. It is implemented by the SM.
type Sink interface {
	// MemDone is called exactly once per accepted Request.
	MemDone(r *Request, now timing.Cycle)
}

// Port sends messages into the interconnect. Implemented by noc.Network.
type Port interface {
	Send(m *Msg, now timing.Cycle)
}

// L1 is the per-SM cache controller.
type L1 interface {
	// Access submits a request. It returns false only while the
	// controller is Closed: with a full MSHR table, for a line that has
	// no MSHR and no readable copy; while frozen, for every request. The
	// SM parks the warp and retries it once the L1 is open again, or at
	// once when its own accepted access gives the line an MSHR: while the
	// L1 is Closed, that is the only thing that lifts a refusal on a line.
	Access(r *Request, now timing.Cycle) bool
	// Closed reports whether the controller cannot take a new line: its
	// MSHR table is full, or (RCC) it is frozen for a timestamp rollover.
	// Only a Tick that did work (see Waker) or the rollover thaw opens it.
	Closed() bool
	// Deliver hands the controller a message from the interconnect. at is
	// the cycle the interconnect last ticked (== the current cycle when the
	// controller has not ticked yet this cycle); controllers use it to
	// timestamp pipeline entry without keeping their own last-tick state.
	Deliver(m *Msg, at timing.Cycle)
	// Tick processes queued work; reports whether anything happened.
	Tick(now timing.Cycle) bool
	// NextEvent returns the earliest future cycle at which Tick could do
	// work, or timing.Never.
	NextEvent(now timing.Cycle) timing.Cycle
	// FenceReadyAt returns the earliest cycle at which a FENCE by warp w
	// may complete, assuming the warp already has no outstanding
	// accesses. A result <= now means "ready now". Protocols without
	// fence semantics return now.
	FenceReadyAt(warp int, now timing.Cycle) timing.Cycle
	// FenceComplete notifies the controller that warp w's fence
	// committed (RCC-WO merges its read and write views here).
	FenceComplete(warp int, now timing.Cycle)
	// Drained reports whether the controller has no buffered work at all
	// (used by the run loop's termination check).
	Drained() bool
	// SetSink wires the completion path to the SM (set once at machine
	// build; the SM and L1 reference each other). A sink that implements
	// Waker is also woken.
	SetSink(s Sink)
}

// L2 is one shared-cache partition controller.
type L2 interface {
	Deliver(m *Msg, at timing.Cycle)
	Tick(now timing.Cycle) bool
	NextEvent(now timing.Cycle) timing.Cycle
	Drained() bool
	// Peek returns the current value of line if the block is resident —
	// the authoritative copy, since every L1 is write-through. A drained
	// machine has no merged writes pending in MSHRs, so residency fully
	// determines the value (the differential checker's memory oracle).
	Peek(line uint64) (uint64, bool)
}

// Waker is an optional interface for Sinks: an L1 controller that finds it
// may have freed resources the SM is waiting on (an MSHR slot) calls Wake
// so the SM re-scans on the next visited cycle instead of polling every
// cycle.
//
// Wake is load-bearing, not a hint: the SM parks a warp whose submit the
// L1 refused, and scans it again only while the L1 is not Closed, after
// its own accepted access to the warp's line, or after a machine-level
// ForceWake (the rollover thaw). A sleeping SM rescans only when woken,
// so an L1 must call Wake after every Tick that did work. While the L1 is
// Closed, only this SM's own accepted access to a line may lift a refusal
// on that line: nothing else between two working Ticks may free a slot,
// make a line readable or thaw the L1. Every protocol keeps this contract
// in one place, ctl.L1.Drain, which ends each L1 Tick.
type Waker interface {
	Wake()
}

// Flits returns the flit size of message m under cfg.
func Flits(cfg *config.Config, m *Msg) int {
	if m.Type.CarriesData() {
		return cfg.DataFlits()
	}
	return cfg.ControlFlits()
}

// PartitionOf maps a line address to its L2 partition.
func PartitionOf(line uint64, partitions int) int {
	return int(line % uint64(partitions))
}

// L2SetIndex maps a line to a set within its partition.
func L2SetIndex(line uint64, partitions, sets int) int {
	return int((line / uint64(partitions)) % uint64(sets))
}

// L1SetIndex maps a line to an L1 set.
func L1SetIndex(line uint64, sets int) int {
	return int(line % uint64(sets))
}

// L2NodeID returns the interconnect node id of a partition.
func L2NodeID(part, numSMs int) int { return numSMs + part }
