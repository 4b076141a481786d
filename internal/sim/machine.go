// Package sim assembles the full machine — SMs, L1 controllers, crossbar
// interconnect, L2 partitions, DRAM channels — for a chosen coherence
// protocol and runs a workload to completion. The run loop is cycle-driven
// with event-based fast-forwarding: when a cycle performs no work, the
// clock jumps to the earliest pending event, so memory-bound phases cost
// little host time while remaining bit-deterministic.
package sim

import (
	"errors"
	"fmt"
	"strings"

	"rccsim/internal/coherence"
	"rccsim/internal/coherence/mesi"
	"rccsim/internal/coherence/tc"
	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/energy"
	"rccsim/internal/gpu"
	"rccsim/internal/mem"
	"rccsim/internal/noc"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// rollover coordinator phases.
const (
	roIdle     = iota
	roStalling // ring stall in progress; waiting for the NoC to drain
	roFlushing // L1 flush round trip in progress
)

// Machine is one simulated GPU running one program.
type Machine struct {
	cfg     config.Config
	st      *stats.Run
	network *noc.Network
	sms     []*gpu.SM
	l1s     []l1Ctl
	l2s     []l2Ctl
	drams   []*mem.DRAM
	backing *mem.Backing
	obsv    trace.Observers // the attached set; the machine itself emits on obsv.Tr
	pool    *coherence.MsgPool
	now     timing.Cycle
	done    bool // latched: a finished machine never becomes un-done

	// epoch is the grid spacing for machine-level decisions (rollover
	// phases, memory-wait sampling): the NoC's minimum delivery latency.
	epoch timing.Cycle

	// Active-set scheduling: per-component wake times. Step only ticks a
	// component once the current cycle reaches its wake time; wake times
	// are re-armed from the component's own NextEvent/NextTick after each
	// tick and pulled earlier by cross-component events (a NoC delivery, a
	// completion, a rollover phase change). Wake times may be conservative
	// (too early is a wasted no-op tick, identical to the old
	// tick-everything loop); they must never be late.
	smWake []timing.Cycle
	l1Wake []timing.Cycle
	l2Wake []timing.Cycle
	l1Next []func(timing.Cycle) timing.Cycle // NextTick if provided, else NextEvent

	// Per-class lower bounds on the wake arrays: when a whole class's
	// minimum lies in the future, Step skips that class's scan entirely.
	// Every path that lowers a wake time also lowers the matching bound;
	// the bounds are re-tightened each time the class scan runs.
	smWakeMin timing.Cycle
	l1WakeMin timing.Cycle
	l2WakeMin timing.Cycle

	// memWaitCat is the drained-SM memory-wait category, resampled at
	// epoch-grid points (multiples of `epoch`): the first visited cycle at
	// or past memGridAt re-reads the DRAM channels. Sampling on the grid,
	// not on every visited cycle, is part of the pinned behaviour: the
	// golden digest's cycle accounts depend on it.
	memGridAt  timing.Cycle
	memWaitCat stats.CycleCat

	// RCC rollover coordination. Every phase transition happens on the
	// epoch grid: a partition's rollover request latches roPending, and
	// the freeze — like the later stall→flush→done transitions — is
	// applied at the next grid cycle (roGridAt, Never when idle). The
	// golden digest pins these grid-snapped transition cycles.
	rccL1s    []*core.L1
	rccL2s    []*core.L2
	idealL1s  []*mesi.L1 // SC-IDEAL: the L2s invalidate copies through zapL1
	roState   int
	roPending bool
	roGridAt  timing.Cycle
	roReadyAt timing.Cycle
	roStart   timing.Cycle
}

// l1Ctl and l2Ctl are the controllers a machine assembles: the protocol
// interface plus the pool and observer setters every controller inherits
// from ctl.Node, and the Reset each protocol defines over ctl's.
type (
	l1Ctl interface {
		coherence.L1
		hooks
	}
	l2Ctl interface {
		coherence.L2
		hooks
	}
	hooks interface {
		SetMsgPool(*coherence.MsgPool)
		SetObservers(trace.Observers)
		Reset()
	}
)

// gridAfter returns the first epoch-grid cycle strictly after now.
func (m *Machine) gridAfter(now timing.Cycle) timing.Cycle {
	return (now/m.epoch + 1) * m.epoch
}

// New builds a machine for cfg executing prog. obs may be nil; it receives
// every load result (used by the litmus/SC checkers).
func New(cfg config.Config, prog *workload.Program, obs gpu.Observer) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fits(cfg, prog); err != nil {
		return nil, err
	}
	m := &Machine{
		cfg:     cfg,
		st:      stats.New(),
		backing: mem.NewBacking(),
	}
	m.network = noc.New(cfg, m.st)
	// One message free list shared by every controller of this machine.
	// The machine is ticked from a single goroutine, so recycled messages
	// never cross machines and the pool needs no synchronization.
	m.pool = &coherence.MsgPool{}

	// Epoch grid: one serialization cycle plus the router pipeline, the
	// least time any message spends in flight. Grid geometry is derived
	// from the config alone, so grid-snapped decisions (rollover phases,
	// memory-wait sampling) land on the same cycles in every run.
	m.epoch = timing.Cycle(cfg.NoCPipeLatency) + 1

	drams := make([]*mem.DRAM, cfg.L2Partitions)
	for p := range drams {
		drams[p] = mem.NewDRAM(cfg, m.st)
		drams[p].Part = p
	}
	m.drams = drams

	// L2 partitions.
	for p := 0; p < cfg.L2Partitions; p++ {
		var l2 l2Ctl
		switch cfg.Protocol {
		case config.RCC, config.RCCWO:
			r := core.NewL2(cfg, p, m.network, m.st, drams[p], m.backing, m.requestRollover)
			m.rccL2s = append(m.rccL2s, r)
			l2 = r
		case config.TCS:
			l2 = tc.NewL2(cfg, p, false, m.network, m.st, drams[p], m.backing)
		case config.TCW:
			l2 = tc.NewL2(cfg, p, true, m.network, m.st, drams[p], m.backing)
		case config.MESI:
			l2 = mesi.NewL2(cfg, p, false, m.network, m.st, drams[p], m.backing, nil)
		case config.SCIdeal:
			l2 = mesi.NewL2(cfg, p, true, m.network, m.st, drams[p], m.backing, m.zapL1)
		default:
			return nil, fmt.Errorf("sim: unknown protocol %v", cfg.Protocol)
		}
		l2.SetMsgPool(m.pool)
		m.l2s = append(m.l2s, l2)
		m.network.Register(coherence.L2NodeID(p, cfg.NumSMs), l2)
	}

	// SMs and their L1s.
	for s := 0; s < cfg.NumSMs; s++ {
		var l1 l1Ctl
		var next func(timing.Cycle) timing.Cycle
		switch cfg.Protocol {
		case config.RCC, config.RCCWO:
			clk := core.NewClock(cfg.Protocol == config.RCCWO)
			r := core.NewL1(cfg, s, m.network, m.st, clk)
			m.rccL1s = append(m.rccL1s, r)
			// The livelock tick fires whenever its deadline passes but
			// only unblocks progress, and so only merits advancing idle
			// time, while misses are outstanding: the scheduler visits at
			// NextTick and jumps by NextEvent.
			l1, next = r, r.NextTick
		case config.TCS:
			l1 = tc.NewL1(cfg, s, false, m.network, m.st)
		case config.TCW:
			l1 = tc.NewL1(cfg, s, true, m.network, m.st)
		case config.MESI:
			l1 = mesi.NewL1(cfg, s, m.network, m.st)
		case config.SCIdeal:
			r := mesi.NewL1(cfg, s, m.network, m.st)
			m.idealL1s = append(m.idealL1s, r)
			l1 = r
		}
		if next == nil {
			next = l1.NextEvent
		}
		l1.SetMsgPool(m.pool)
		m.l1s = append(m.l1s, l1)
		m.l1Next = append(m.l1Next, next)
		m.network.Register(s, l1)
		sm := gpu.NewSM(cfg, s, l1, m.st, prog, obs)
		sm.SetEnvProbe(m)
		m.sms = append(m.sms, sm)
		l1.SetSink(sm)
	}

	// Active-set scheduler wiring: deliveries pull the destination's wake
	// forward.
	m.smWake = make([]timing.Cycle, cfg.NumSMs)
	m.l1Wake = make([]timing.Cycle, cfg.NumSMs)
	m.l2Wake = make([]timing.Cycle, cfg.L2Partitions)
	m.network.SetWake(m.deliveryWake)
	m.reset()
	return m, nil
}

// fits reports why prog cannot run on a machine built from cfg: a
// different SM count, an SM with more warps than cfg.WarpsPerSM (the
// controllers size per-warp state by it), or a malformed program.
func fits(cfg config.Config, prog *workload.Program) error {
	if len(prog.SMs) != cfg.NumSMs {
		return fmt.Errorf("sim: program has %d SMs, config has %d", len(prog.SMs), cfg.NumSMs)
	}
	for s, warps := range prog.SMs {
		if len(warps) > cfg.WarpsPerSM {
			return fmt.Errorf("sim: program SM %d has %d warps, config allows %d per SM", s, len(warps), cfg.WarpsPerSM)
		}
	}
	return prog.Validate(cfg.WarpWidth)
}

// Reset returns the machine to exactly the state New(cfg, prog, obs)
// builds for its own config, keeping every allocation: tag arrays, MSHR
// tables, calendars, pipes, DRAM slabs, SM arenas and pools, the message
// pool, the counters and the backing image. The observers and any NoC
// delay chooser are detached; attach them again before Run. A program
// that New would reject leaves the machine untouched and returns New's
// error.
func (m *Machine) Reset(prog *workload.Program, obs gpu.Observer) error {
	if err := fits(m.cfg, prog); err != nil {
		return err
	}
	*m.st = stats.Run{}
	m.backing.Reset()
	m.network.Reset()
	for _, d := range m.drams {
		d.Reset()
	}
	for _, l2 := range m.l2s {
		l2.Reset()
	}
	for i, l1 := range m.l1s {
		l1.Reset()
		m.sms[i].Reset(prog, obs)
	}
	m.reset()
	return nil
}

// reset initialises the machine's own run state, the part New and Reset
// share above the components: the clock, the wake arrays (zero, so the
// first Step visits everything), the memory-wait sample and the rollover
// coordinator.
func (m *Machine) reset() {
	m.obsv = trace.Observers{}
	m.now = 0
	m.done = false
	clear(m.smWake)
	clear(m.l1Wake)
	clear(m.l2Wake)
	m.smWakeMin, m.l1WakeMin, m.l2WakeMin = 0, 0, 0
	m.memGridAt, m.memWaitCat = 0, 0
	m.roState, m.roPending = roIdle, false
	m.roGridAt, m.roReadyAt, m.roStart = timing.Never, 0, 0
}

// deliveryWake re-arms the wake time of a component that just received a
// message. L1s tick before the network within a cycle, so a delivery at
// now is seen at now+1; an L2 partition queues every delivered message in
// a pipe of depth L2Latency, so it is woken when the entry is ready (the
// same cycle when the depth is 0: L2s tick after the network).
func (m *Machine) deliveryWake(dst int, now timing.Cycle) {
	if dst < m.cfg.NumSMs {
		if now+1 < m.l1Wake[dst] {
			m.l1Wake[dst] = now + 1
			if now+1 < m.l1WakeMin {
				m.l1WakeMin = now + 1
			}
		}
		return
	}
	at := now + timing.Cycle(m.cfg.L2Latency)
	if p := dst - m.cfg.NumSMs; at < m.l2Wake[p] {
		m.l2Wake[p] = at
		if at < m.l2WakeMin {
			m.l2WakeMin = at
		}
	}
}

// wakeAll pulls every component's wake time to at (rollover phase changes
// freeze or thaw everything at once, outside any single component's own
// event horizon). SMs are force-woken: retried submits aside, each must
// re-evaluate its cycle-accounting category across the phase change, and a
// forced scan on a sleeping SM is provably a no-op otherwise.
func (m *Machine) wakeAll(at timing.Cycle) {
	for i, sm := range m.sms {
		if at < m.smWake[i] {
			m.smWake[i] = at
		}
		sm.ForceWake()
	}
	for i := range m.l1Wake {
		if at < m.l1Wake[i] {
			m.l1Wake[i] = at
		}
	}
	for p := range m.l2Wake {
		if at < m.l2Wake[p] {
			m.l2Wake[p] = at
		}
	}
	m.smWakeMin = timing.Min(m.smWakeMin, at)
	m.l1WakeMin = timing.Min(m.l1WakeMin, at)
	m.l2WakeMin = timing.Min(m.l2WakeMin, at)
}

func (m *Machine) zapL1(coreID int, line uint64) { m.idealL1s[coreID].Zap(line) }

// Attach threads the observers through every component of the machine
// (SMs, L1s, L2 partitions, the interconnect and the DRAM channels) and
// binds the run's counters to any stats-snapshotting sinks on the bus.
// Call it before Run; the zero Observers detaches everything.
func (m *Machine) Attach(o trace.Observers) {
	m.obsv = o
	m.network.SetObservers(o)
	for _, l1 := range m.l1s {
		l1.SetObservers(o)
	}
	for _, l2 := range m.l2s {
		l2.SetObservers(o)
	}
	for _, sm := range m.sms {
		sm.SetObservers(o)
	}
	for _, d := range m.drams {
		d.SetObservers(o)
	}
	o.Tr.BindStats(m.st)
}

// AttachTracer, AttachHeat and AttachSpans each replace one member of the
// attached set. They are kept only for bench/, which calls them in
// sequence, until the next benchmark change moves it to Attach; nothing
// else may call them.
func (m *Machine) AttachTracer(tr *trace.Bus) { o := m.obsv; o.Tr = tr; m.Attach(o) }

// AttachHeat: see AttachTracer.
func (m *Machine) AttachHeat(h *obs.Heat) { o := m.obsv; o.Heat = h; m.Attach(o) }

// AttachSpans: see AttachTracer.
func (m *Machine) AttachSpans(sp *span.Recorder) { o := m.obsv; o.Sp = sp; m.Attach(o) }

// SetNoCDelayChooser attaches the one NoC timing perturbation hook: fn is
// consulted once per message send, in send order, for the extra pipeline
// delay. The fuzzer draws it from a seeded stream; the model checker uses
// it to turn every delivery into an enumerable decision point. A nil fn
// sends every message with no extra delay. Reset detaches it.
func (m *Machine) SetNoCDelayChooser(fn noc.DelayChooser) { m.network.SetChooser(fn) }

// FoldInflight visits every in-flight NoC message in exact delivery order
// (see noc.Network).
func (m *Machine) FoldInflight(fn func(at timing.Cycle, msg *coherence.Msg)) {
	m.network.FoldInflight(fn)
}

// Now returns the current cycle.
func (m *Machine) Now() timing.Cycle { return m.now }

// Stats returns the live counter set.
func (m *Machine) Stats() *stats.Run { return m.st }

// Backing returns the DRAM value image (tests inspect final memory).
func (m *Machine) Backing() *mem.Backing { return m.backing }

// ReadLine returns the current value of a line as the memory system sees
// it: the owning L2 partition's copy when resident (the L2s are write-back,
// so a dirty block may never have reached DRAM), otherwise the backing
// image. Meaningful on a drained machine; mid-run it ignores in-flight
// writes.
func (m *Machine) ReadLine(line uint64) uint64 {
	p := coherence.PartitionOf(line, m.cfg.L2Partitions)
	if v, ok := m.l2s[p].Peek(line); ok {
		return v
	}
	return m.backing.Read(line)
}

// Done reports whether every warp retired and the memory system drained.
// The result is latched: once done, always done (nothing re-injects work),
// so steady-state calls are O(1). The network check runs first because it
// is a single queue-length test and is almost always false mid-run.
func (m *Machine) Done() bool {
	if m.done {
		return true
	}
	if !m.network.Drained() || m.roState != roIdle || m.roPending {
		return false
	}
	for _, sm := range m.sms {
		if !sm.Done() {
			return false
		}
	}
	for _, l1 := range m.l1s {
		if !l1.Drained() {
			return false
		}
	}
	for _, l2 := range m.l2s {
		if !l2.Drained() {
			return false
		}
	}
	m.done = true
	return true
}

// Step advances the machine by one cycle (or one idle jump) and reports
// whether any component did work. Only components whose wake time has
// arrived are ticked; a skipped component's Tick is provably a no-op
// returning false (its wake times are conservative), so the cycle-by-cycle
// behaviour is identical to ticking everything.
//
// A wake time may be moved later only with such a proof; ctl.L2.Serve
// gives the one for a partition parked on a refused request. Not every SM
// visit can be dropped: an SM's cycle account depends on which cycles it
// rescans, so the visits that gpu.SM.NextEvent asks for while a submit is
// pending, and the dirty mark of every MemDone, are part of the pinned
// behaviour.
func (m *Machine) Step() bool {
	now := m.now
	m.obsv.Tr.CycleReached(now)
	did := false
	// Grid-snapped machine-level work first: a rollover phase change at a
	// grid cycle freezes or thaws the components before any of them tick
	// this cycle.
	if now == m.roGridAt && m.rolloverGrid(now) {
		did = true
		m.wakeAll(now + 1)
	}
	if now >= m.memGridAt {
		m.sampleMemWait(now)
	}
	if m.smWakeMin <= now {
		min := timing.Never
		for i, sm := range m.sms {
			if m.smWake[i] <= now {
				if sm.Tick(now) {
					did = true
				}
				m.smWake[i] = timing.Max(now+1, sm.NextEvent(now))
			}
			if m.smWake[i] < min {
				min = m.smWake[i]
			}
		}
		m.smWakeMin = min
	}
	if m.l1WakeMin <= now {
		min := timing.Never
		for i, l1 := range m.l1s {
			if m.l1Wake[i] <= now {
				if l1.Tick(now) {
					did = true
					// Completions (MemDone) or an MSHR-free wake may have
					// made the SM issuable again next cycle.
					if now+1 < m.smWake[i] {
						m.smWake[i] = now + 1
						m.smWakeMin = timing.Min(m.smWakeMin, now+1)
					}
				}
				m.l1Wake[i] = timing.Max(now+1, m.l1Next[i](now))
			}
			if m.l1Wake[i] < min {
				min = m.l1Wake[i]
			}
		}
		m.l1WakeMin = min
	}
	// The network ticks unconditionally: it is a single heap check when
	// idle, and its deliveries re-arm destination wake times.
	if m.network.Tick(now) {
		did = true
	}
	if m.l2WakeMin <= now {
		min := timing.Never
		for p, l2 := range m.l2s {
			if m.l2Wake[p] <= now {
				if l2.Tick(now) {
					did = true
				}
				m.l2Wake[p] = timing.Max(now+1, l2.NextEvent(now))
			}
			if m.l2Wake[p] < min {
				min = m.l2Wake[p]
			}
		}
		m.l2WakeMin = min
	}
	if did {
		m.now = now + 1
		return true
	}
	next := m.nextEvent(now)
	if next <= now {
		next = now + 1
	}
	m.now = next
	return false
}

// nextEvent returns a safe idle-jump target: the earliest pending wake
// bound or network delivery. The wake arrays are conservative (never
// late), so the jump can only land early — an extra no-op visit — never
// skip an event. Delivery timestamps are visit-independent (see
// noc.Node), so an early landing is behaviour-neutral.
func (m *Machine) nextEvent(now timing.Cycle) timing.Cycle {
	next := timing.Min(m.smWakeMin, m.l1WakeMin)
	next = timing.Min(next, m.l2WakeMin)
	next = timing.Min(next, m.network.NextEvent())
	// roGridAt is Never outside rollover windows; during one it forces a
	// visit to each grid cycle so phase transitions land exactly on grid.
	return timing.Min(next, m.roGridAt)
}

// Run executes until completion and returns the final counters.
func (m *Machine) Run() (*stats.Run, error) {
	idleJumps := 0
	// Done is only re-evaluated after a Step that did work: an idle step
	// changes nothing but the clock, so its doneness verdict cannot differ
	// from the previous one.
	done := m.Done()
	for !done {
		if m.cfg.MaxCycles > 0 && uint64(m.now) > m.cfg.MaxCycles {
			m.finishAccounting()
			m.st.Cycles = uint64(m.now)
			return m.st, m.stuckError(fmt.Sprintf("sim: exceeded MaxCycles=%d (livelock or deadlock?)", m.cfg.MaxCycles))
		}
		if m.Step() {
			idleJumps = 0
			done = m.Done()
			continue
		}
		idleJumps++
		// The bound must exceed the worst-case run of conservative-early
		// no-op visits (every SM's busy wheel fully stale: NumSMs × 64),
		// or a healthy machine could be misdiagnosed as deadlocked.
		if idleJumps > 4096+64*len(m.sms) {
			m.finishAccounting()
			m.st.Cycles = uint64(m.now)
			return m.st, m.stuckError(deadlockMsg)
		}
	}
	m.finishAccounting()
	m.st.Cycles = uint64(m.now)
	return m.st, nil
}

// deadlockMsg is the error prefix of a run that stopped making progress.
const deadlockMsg = "sim: machine idle but not done (protocol deadlock)"

// stuckError returns an abort error: msg, then a report of what still holds
// the machine at m.now — messages in the NoC, each L2 partition's DRAM
// backlog and drain state, the SMs that have not finished and, for each
// SM listed, the warp it has waited on longest: its id, pc, op and first
// line (see gpu.SM.OldestBlocked). Partitions past the 16th and SMs past
// the 8th are elided, so the report stays under 1 KB on any machine.
func (m *Machine) stuckError(msg string) error {
	const maxParts, maxIDs = 16, 8
	var b strings.Builder
	fmt.Fprintf(&b, "%s: cycle %d, noc in-flight %d, l2 [", msg, m.now, m.network.InFlight())
	for p, l2 := range m.l2s {
		if p > 0 {
			b.WriteByte(' ')
		}
		if p == maxParts {
			b.WriteString("...")
			break
		}
		state := "busy"
		if l2.Drained() {
			state = "drained"
		}
		fmt.Fprintf(&b, "p%d dram %d %s", p, m.drams[p].Pending(), state)
	}
	var stuck []int
	n := 0
	for i, sm := range m.sms {
		if !sm.Done() {
			if n++; n <= maxIDs {
				stuck = append(stuck, i)
			}
		}
	}
	fmt.Fprintf(&b, "], %d SMs not done %v", n, stuck)
	if n > maxIDs {
		b.WriteString(" ...")
	}
	if len(stuck) > 0 {
		b.WriteString(", oldest blocked [")
		for k, i := range stuck {
			if k > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "sm%d", i)
			if o, ok := m.sms[i].OldestBlocked(); ok {
				fmt.Fprintf(&b, " w%d pc %d %v", o.Warp, o.PC, o.Op)
				if o.HasLine {
					fmt.Fprintf(&b, " line %#x", o.Line)
				}
			}
			if k < len(stuck)-1 {
				b.WriteByte(',')
			}
		}
		b.WriteByte(']')
	}
	return errors.New(b.String())
}

// finishAccounting closes every SM's open cycle-accounting interval at the
// final cycle, establishing sum(CycleAccount) == Cycles × NumSMs.
func (m *Machine) finishAccounting() {
	for _, sm := range m.sms {
		sm.FinishAccounting(m.now)
	}
}

// RolloverActive implements gpu.EnvProbe.
func (m *Machine) RolloverActive() bool { return m.roState != roIdle }

// MemWaitCat implements gpu.EnvProbe: a drained SM's memory wait counts as
// DRAM time whenever any channel had commands pending at the last epoch-grid
// sample, else NoC time. The value is held for a whole grid epoch so every
// SM charges the same category within it; see sampleMemWait.
func (m *Machine) MemWaitCat() stats.CycleCat { return m.memWaitCat }

// sampleMemWait re-reads the DRAM channels at an epoch-grid boundary. Step
// calls it with the first cycle it visits at or past memGridAt; the value
// cannot depend on which cycle that is, because no L2 (and therefore no
// DRAM channel) does work on an unvisited cycle.
func (m *Machine) sampleMemWait(now timing.Cycle) {
	m.memWaitCat = stats.CatNoC
	for _, d := range m.drams {
		if d.Pending() > 0 {
			m.memWaitCat = stats.CatDRAM
			break
		}
	}
	m.memGridAt = m.gridAfter(now)
}

// requestRollover is invoked by an RCC L2 partition whose timestamps are
// about to overflow (Sec. III-D). The request only latches a flag: the
// machine-wide freeze is applied at the next epoch-grid cycle. The
// deferral is bounded by one epoch, and
// the partitions' overflow thresholds carry far more headroom than that,
// so timestamps cannot overflow while the request is pending.
func (m *Machine) requestRollover() {
	if m.roState != roIdle || m.roPending {
		return
	}
	m.roPending = true
	m.roGridAt = m.gridAfter(m.now)
}

// rolloverGrid runs the grid-snapped rollover work due at cycle now (an
// epoch-grid cycle): applying a pending freeze, or advancing the active
// stall/flush state machine. It reports whether anything happened and
// re-arms roGridAt for the next grid visit while rollover work remains.
func (m *Machine) rolloverGrid(now timing.Cycle) bool {
	did := false
	if m.roPending {
		m.roPending = false
		m.applyRollover(now)
		did = true
	} else if m.roState != roIdle {
		did = m.tickRollover(now)
	}
	if m.roState == roIdle && !m.roPending {
		m.roGridAt = timing.Never
	} else {
		m.roGridAt = now + m.epoch
	}
	return did
}

// applyRollover performs the machine-wide freeze that starts a rollover.
func (m *Machine) applyRollover(now timing.Cycle) {
	m.roState = roStalling
	m.roStart = now
	m.obsv.Tr.Rollover(now, trace.RolloverStall, -1, 0)
	// Ring stall: a flit visits every partition before processing stops
	// everywhere.
	m.roReadyAt = now + timing.Cycle(4*m.cfg.L2Partitions)
	for _, l1 := range m.rccL1s {
		l1.Freeze(true)
	}
	for _, l2 := range m.rccL2s {
		l2.Freeze(true)
	}
	for _, sm := range m.sms {
		sm.SetRollover(true)
	}
}

// tickRollover advances the rollover state machine.
func (m *Machine) tickRollover(now timing.Cycle) bool {
	switch m.roState {
	case roIdle:
		return false
	case roStalling:
		if now < m.roReadyAt || !m.network.Drained() {
			return false
		}
		// Everything quiesced: reset all L2 timestamps and start the
		// flush round trip to the L1s.
		for _, l2 := range m.rccL2s {
			l2.ResetTimestamps(now)
		}
		m.obsv.Tr.Rollover(now, trace.RolloverReset, -1, 0)
		flushRT := 2 * (timing.Cycle(m.cfg.NoCPipeLatency) +
			timing.Cycle((m.cfg.ControlFlits()+m.cfg.PortFlitsPerCycle-1)/m.cfg.PortFlitsPerCycle))
		m.roState = roFlushing
		m.roReadyAt = now + flushRT
		// Account the flush/ack control traffic explicitly.
		for range m.rccL1s {
			m.st.Traffic(stats.MsgFlushCt, m.cfg.ControlFlits())
			m.st.Traffic(stats.MsgFlushCt, m.cfg.ControlFlits())
		}
		return true
	case roFlushing:
		if now < m.roReadyAt {
			return false
		}
		for _, l1 := range m.rccL1s {
			l1.FlushNow(now)
			l1.Freeze(false)
		}
		for _, l2 := range m.rccL2s {
			l2.Freeze(false)
		}
		for _, sm := range m.sms {
			sm.SetRollover(false)
		}
		m.st.Rollovers++
		m.st.RolloverStall += uint64(now - m.roStart)
		m.obsv.Tr.Rollover(now, trace.RolloverDone, -1, uint64(now-m.roStart))
		m.roState = roIdle
		return true
	}
	return false
}

// Result bundles a finished run for the experiment harness.
type Result struct {
	Config config.Config
	Stats  *stats.Run
	Energy energy.Breakdown
}

// RunBenchmark generates and executes benchmark b under cfg with the
// observers o attached for the duration of the run (the zero value for
// none). The caller keeps ownership of them and closes/summarizes them
// after the run.
func RunBenchmark(cfg config.Config, b workload.Benchmark, o trace.Observers) (Result, error) {
	prog := b.Generate(cfg)
	m, err := New(cfg, prog, nil)
	if err != nil {
		return Result{}, err
	}
	m.Attach(o)
	st, err := m.Run()
	if err != nil {
		return Result{}, fmt.Errorf("%s/%v: %w", b.Name, cfg.Protocol, err)
	}
	return Result{Config: cfg, Stats: st, Energy: energy.Interconnect(cfg, st)}, nil
}

// RunBenchmarkSpanned is RunBenchmark with the observers as separate
// arguments, kept only for bench/ until the next benchmark change moves
// it to RunBenchmark; nothing else may call it.
func RunBenchmarkSpanned(cfg config.Config, b workload.Benchmark, tr *trace.Bus, heat *obs.Heat, sp *span.Recorder) (Result, error) {
	return RunBenchmark(cfg, b, trace.Observers{Tr: tr, Heat: heat, Sp: sp})
}
