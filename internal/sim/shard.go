// Sharded execution: the SMs and their L1s are partitioned into contiguous
// ranges, one per shard, and each shard advances through a fixed "epoch" of
// cycles on its own goroutine between barriers. The epoch length equals the
// interconnect's minimum delivery latency (one serialization cycle plus the
// router pipeline), which makes the scheme conservative in the classic
// parallel-discrete-event sense: every message delivered inside an epoch was
// already sitting in the delivery calendar when the epoch began, so the
// barrier can hand each shard its incoming deliveries up front.
//
// Determinism is exact, not statistical. Three mechanisms make the sharded
// run bit-identical to the sequential one:
//
//  1. Deliveries are pre-popped at the barrier in calendar order and handed
//     to each shard with their delivery cycles; a shard delivers them at
//     exactly those cycles, after its own SM/L1 ticks for the cycle — the
//     same within-cycle position the sequential loop's network tick has.
//  2. Sends are deferred. An L1 injecting during the parallel phase appends
//     to its shard's log instead of touching the network. At the barrier the
//     logs are replayed in (cycle, phase, source) order — the exact order
//     the sequential loop would have produced, because within one cycle it
//     ticks all SMs (which inject via L1 access paths), then all L1s, both
//     in index order. Replay in original order keeps the network's per-port
//     serialization state, its jitter RNG draws, and the calendar's
//     same-cycle FIFO order identical to a sequential run.
//  3. Everything cross-cutting — L2 partitions, DRAM, rollover phase
//     changes, memory-wait sampling — runs serially at the barrier, on the
//     epoch grid, and the sequential loop snaps the same decisions to the
//     same grid (see Machine.rolloverGrid and Machine.sampleMemWait).
//
// A component's tick sequence depends only on its own wake times and
// delivered messages, never on which cycles the global clock happened to
// visit, so the two loops' different visiting patterns are unobservable.
package sim

import (
	"fmt"
	"sync"

	"rccsim/internal/coherence"
	"rccsim/internal/noc"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// Send phases within one cycle, in sequential tick order.
const (
	phaseSM = uint8(iota) // injected while the SMs tick (L1 access paths)
	phaseL1               // injected while the L1s tick
)

// deferredSend is one logged injection, replayed at the epoch barrier.
type deferredSend struct {
	msg   *coherence.Msg
	at    timing.Cycle
	phase uint8
}

// deferredPort fronts the interconnect for one shard's L1s. Outside the
// parallel phase it is a transparent passthrough (so construction wiring,
// rollover flushes at barriers, and the sequential fallback loop behave
// exactly like a plain network port); during the parallel phase it logs.
type deferredPort struct {
	net       *noc.Network
	deferring bool
	phase     uint8
	buf       []deferredSend
}

func (p *deferredPort) Send(msg *coherence.Msg, now timing.Cycle) {
	if !p.deferring {
		p.net.Send(msg, now)
		return
	}
	p.buf = append(p.buf, deferredSend{msg: msg, at: now, phase: p.phase})
}

// delivery is one pre-popped in-flight message with its delivery cycle.
type delivery struct {
	msg *coherence.Msg
	at  timing.Cycle
}

// shardResult reports what a shard did during one epoch.
type shardResult struct {
	lastWork timing.Cycle
	worked   bool
}

// statsTarget is implemented by components whose counter set can be
// rebound after construction (the sharded loop points each shard's SMs and
// L1s at a private stats.Run and merges at the end).
type statsTarget interface {
	SetStats(*stats.Run)
}

// epochWork is one barrier-to-barrier assignment for a shard worker.
type epochWork struct {
	T, Tend timing.Cycle
}

// runSharded executes the machine with effShards parallel shard goroutines.
// The simulated behaviour — stats digest included — is bit-identical to the
// sequential loop; see the package comment at the top of this file.
func (m *Machine) runSharded() (*stats.Run, error) {
	eff := m.effShards
	E := m.epoch

	// Rebind each shard's SMs and L1s to a private counter set and message
	// free list; both are touched only by that shard's goroutine during the
	// parallel phase (and only by the barrier otherwise). Construction left
	// everything on m.st so that a machine that falls back to the
	// sequential loop is indistinguishable from a -shards 1 machine.
	shardSts := make([]*stats.Run, eff)
	for k := 0; k < eff; k++ {
		shardSts[k] = stats.New()
		pool := &coherence.MsgPool{}
		for s := m.shardLo[k]; s < m.shardHi[k]; s++ {
			m.sms[s].SetStats(shardSts[k])
			if t, ok := m.l1s[s].(statsTarget); ok {
				t.SetStats(shardSts[k])
			}
			if t, ok := m.l1s[s].(msgPoolTarget); ok {
				t.SetMsgPool(pool)
			}
		}
	}

	// Per-shard delivery queues and replay cursors, reused across epochs.
	l1Q := make([][]delivery, eff)
	var l2Q []delivery
	heads := make([]int, eff)

	// Persistent workers for shards 1..eff-1; shard 0 runs on this
	// goroutine. The start channels and WaitGroup carry the happens-before
	// edges that make the wake arrays, delivery queues, and send logs safe
	// to touch from exactly one goroutine per phase.
	starts := make([]chan epochWork, eff)
	results := make([]shardResult, eff)
	var wg sync.WaitGroup
	for k := 1; k < eff; k++ {
		k := k
		starts[k] = make(chan epochWork, 1)
		go func() {
			for w := range starts[k] {
				results[k] = m.runShardEpoch(k, w.T, w.Tend, l1Q[k])
				wg.Done()
			}
		}()
	}
	defer func() {
		for k := 1; k < eff; k++ {
			close(starts[k])
		}
	}()

	var (
		T          timing.Cycle
		lastWork   timing.Cycle
		worked     bool
		idleEpochs int
	)
	idleLimit := 4096 + 64*len(m.sms)
	fail := func(at timing.Cycle, msg string) (*stats.Run, error) {
		m.now = at
		err := m.stuckError(msg)
		m.finishAccounting()
		for _, s := range shardSts {
			m.st.Merge(s)
		}
		m.st.Cycles = uint64(m.now)
		return m.st, err
	}

	for {
		// Barrier at grid cycle T. Machine-level work first, mirroring the
		// top of the sequential Step.
		m.now = T
		m.tr.CycleReached(T)
		if T == m.roGridAt && m.rolloverGrid(T) {
			m.wakeAll(T + 1)
			worked, lastWork = true, T
			idleEpochs = 0
		}
		if m.Done() {
			break
		}
		if m.cfg.MaxCycles > 0 && uint64(T) > m.cfg.MaxCycles {
			return fail(T, fmt.Sprintf("sim: exceeded MaxCycles=%d (livelock or deadlock?)", m.cfg.MaxCycles))
		}
		if T >= m.memGridAt {
			m.sampleMemWait(T)
		}
		Tend := T + E

		// Pre-pop every delivery landing inside [T, Tend). The calendar
		// yields them in delivery order, so per-destination queue order
		// matches the sequential network tick's delivery order.
		for k := range l1Q {
			l1Q[k] = l1Q[k][:0]
		}
		l2Q = l2Q[:0]
		for {
			msg, at, ok := m.network.PopDue(Tend - 1)
			if !ok {
				break
			}
			if msg.Dst < m.cfg.NumSMs {
				k := m.shardOf[msg.Dst]
				l1Q[k] = append(l1Q[k], delivery{msg: msg, at: at})
			} else {
				l2Q = append(l2Q, delivery{msg: msg, at: at})
			}
		}

		// Idle epoch: nothing due anywhere before Tend — fast-forward the
		// grid to the epoch containing the next event instead of running.
		idle := len(l2Q) == 0 && m.smWakeMin >= Tend && m.l1WakeMin >= Tend && m.l2WakeMin >= Tend
		for k := 0; idle && k < eff; k++ {
			idle = len(l1Q[k]) == 0
		}
		if idle {
			next := m.nextEvent(T)
			if next == timing.Never {
				return fail(T, deadlockMsg)
			}
			T = next / E * E
			continue
		}

		// Parallel phase: each shard advances its SMs and L1s to Tend.
		wg.Add(eff - 1)
		for k := 1; k < eff; k++ {
			starts[k] <- epochWork{T: T, Tend: Tend}
		}
		results[0] = m.runShardEpoch(0, T, Tend, l1Q[0])
		wg.Wait()

		// Serial phase: replay the logged sends in global order, deliver
		// to and tick the L2 partitions at their exact cycles.
		sWork, sLast := m.runSerialEpoch(T, Tend, l2Q, heads)

		epochWorked := sWork
		epochLast := sLast
		for k := 0; k < eff; k++ {
			if results[k].worked {
				epochWorked = true
				if results[k].lastWork > epochLast {
					epochLast = results[k].lastWork
				}
			}
			m.ports[k].buf = m.ports[k].buf[:0]
		}
		if epochWorked {
			worked = true
			if epochLast > lastWork {
				lastWork = epochLast
			}
			idleEpochs = 0
		} else {
			// Conservative wake times can produce a bounded run of no-op
			// epochs (same as the sequential loop's no-op visits); a long
			// run means the machine is wedged.
			idleEpochs++
			if idleEpochs > idleLimit {
				return fail(T, deadlockMsg)
			}
		}

		// Re-tighten the class bounds for the barrier logic above.
		min := timing.Never
		for _, w := range m.smWake {
			if w < min {
				min = w
			}
		}
		m.smWakeMin = min
		min = timing.Never
		for _, w := range m.l1Wake {
			if w < min {
				min = w
			}
		}
		m.l1WakeMin = min
		min = timing.Never
		for _, w := range m.l2Wake {
			if w < min {
				min = w
			}
		}
		m.l2WakeMin = min
		T = Tend
	}

	if worked {
		m.now = lastWork + 1
	} else {
		m.now = 0
	}
	m.finishAccounting()
	for _, s := range shardSts {
		m.st.Merge(s)
	}
	m.st.Cycles = uint64(m.now)
	return m.st, nil
}

// runShardEpoch advances shard k's SMs and L1s from T to Tend, delivering
// the shard's pre-popped messages at their exact cycles. It is a faithful
// copy of the sequential Step's SM and L1 sections restricted to the
// shard's index range, including the within-cycle order (SMs, then L1s,
// then deliveries) and the idle fast-forward.
func (m *Machine) runShardEpoch(k int, T, Tend timing.Cycle, q []delivery) shardResult {
	lo, hi := m.shardLo[k], m.shardHi[k]
	port := m.ports[k]
	port.deferring = true
	var res shardResult
	qi := 0
	t := T
	for t < Tend {
		did := false
		port.phase = phaseSM
		for i := lo; i < hi; i++ {
			if m.smWake[i] <= t {
				if m.sms[i].Tick(t) {
					did = true
				}
				m.smWake[i] = timing.Max(t+1, m.sms[i].NextEvent(t))
			}
		}
		port.phase = phaseL1
		for i := lo; i < hi; i++ {
			if m.l1Wake[i] <= t {
				if m.l1s[i].Tick(t) {
					did = true
					// Completions may have made the SM issuable again.
					if t+1 < m.smWake[i] {
						m.smWake[i] = t + 1
					}
				}
				m.l1Wake[i] = timing.Max(t+1, m.l1Next[i](t))
			}
		}
		for qi < len(q) && q[qi].at == t {
			d := q[qi].msg.Dst
			m.l1s[d].Deliver(q[qi].msg, t)
			// Same re-arm as the sequential delivery wake: an L1 ticks
			// before the network within a cycle, so it sees the message
			// next cycle.
			if t+1 < m.l1Wake[d] {
				m.l1Wake[d] = t + 1
			}
			did = true
			qi++
		}
		if did {
			res.worked, res.lastWork = true, t
			t++
			continue
		}
		next := Tend
		for i := lo; i < hi; i++ {
			if m.smWake[i] < next {
				next = m.smWake[i]
			}
			if m.l1Wake[i] < next {
				next = m.l1Wake[i]
			}
		}
		if qi < len(q) && q[qi].at < next {
			next = q[qi].at
		}
		if next <= t {
			next = t + 1
		}
		t = next
	}
	port.deferring = false
	return res
}

// runSerialEpoch runs the barrier's serial tail for epoch [T, Tend): the
// logged sends are replayed in (cycle, phase, source) order — merging the
// per-shard logs, each already sorted, and exploiting that shard index
// order equals source index order — interleaved with the L2 partitions'
// deliveries and ticks at their exact cycles. Within one cycle the order
// is sends (SM phase, then L1 phase), then L2 deliveries, then L2 ticks:
// precisely the sequential Step's order for the components involved.
func (m *Machine) runSerialEpoch(T, Tend timing.Cycle, l2Q []delivery, heads []int) (bool, timing.Cycle) {
	eff := m.effShards
	for k := range heads {
		heads[k] = 0
	}
	var lastWork timing.Cycle
	worked := false
	qi := 0
	for {
		next := timing.Never
		for k := 0; k < eff; k++ {
			if heads[k] < len(m.ports[k].buf) {
				if at := m.ports[k].buf[heads[k]].at; at < next {
					next = at
				}
			}
		}
		if qi < len(l2Q) && l2Q[qi].at < next {
			next = l2Q[qi].at
		}
		for p := range m.l2Wake {
			if m.l2Wake[p] < next {
				next = m.l2Wake[p]
			}
		}
		if next >= Tend {
			break
		}
		t := next
		m.now = t
		for {
			best, bestPhase := -1, uint8(255)
			for k := 0; k < eff; k++ {
				if heads[k] >= len(m.ports[k].buf) {
					continue
				}
				if e := &m.ports[k].buf[heads[k]]; e.at == t && e.phase < bestPhase {
					best, bestPhase = k, e.phase
				}
			}
			if best == -1 {
				break
			}
			e := m.ports[best].buf[heads[best]]
			heads[best]++
			m.network.Send(e.msg, t)
		}
		for qi < len(l2Q) && l2Q[qi].at == t {
			msg := l2Q[qi].msg
			p := msg.Dst - m.cfg.NumSMs
			m.l2s[p].Deliver(msg, t)
			// L2s tick after the network within a cycle: wake this cycle.
			if t < m.l2Wake[p] {
				m.l2Wake[p] = t
			}
			worked, lastWork = true, t
			qi++
		}
		for p, l2 := range m.l2s {
			if m.l2Wake[p] <= t {
				if l2.Tick(t) {
					worked, lastWork = true, t
				}
				m.l2Wake[p] = timing.Max(t+1, l2.NextEvent(t))
			}
		}
	}
	return worked, lastWork
}
