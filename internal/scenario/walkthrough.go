// Package scenario builds small, hand-seeded protocol fragments whose
// traces are short enough to read end to end. Rig is the paper's Fig. 3
// two-core RCC machine: real core.L1/core.L2 controllers over a
// zero-latency wire, seeded with the figure's initial state. Walkthrough
// drives Fig. 3's seven-operation script through it and narrates the
// outcome, while every coherence message, lease event, and clock advance
// lands on the caller's trace.Bus for whatever sinks it registered (the
// legible TextSink in cmd/rcctrace, JSONL for the golden test, Perfetto
// for a timeline). examples/walkthrough drives the same rig.
package scenario

import (
	"fmt"
	"io"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
)

// Fig. 3's two addresses.
const (
	LineA = uint64(0)
	LineB = uint64(1)
)

// Rig is the Fig. 3 machine: two RCC cores' L1s and one L2 partition
// joined by a zero-latency wire. Each message is recorded on the event
// bus (send and delivery at the same cycle) and handed straight to its
// destination. Interconnect latency is irrelevant to the walkthrough:
// only message ordering and the timestamps carried matter.
type Rig struct {
	L1s  []*core.L1
	L2   *core.L2
	Msgs int // coherence messages exchanged so far

	cfg config.Config
	tr  *trace.Bus
	now timing.Cycle
	id  uint64
}

// NewRig builds the rig with the given fixed lease and observers o, and
// seeds Fig. 3's initial state: both cores hold valid copies of A and B,
// and C0's clock has already run past the seeded lease on A.
func NewRig(lease uint64, o trace.Observers) *Rig {
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.RCCPredictor = false
	cfg.RCCFixedLease = lease
	cfg.RCCLivelockTick = 0

	r := &Rig{cfg: cfg, tr: o.Tr}
	st := stats.New()
	backing := mem.NewBacking()
	dram := mem.NewDRAM(cfg, st)
	dram.SetObservers(o)
	r.L2 = core.NewL2(cfg, 0, r, st, dram, backing, nil)
	r.L2.SetObservers(o)
	for i := 0; i < 2; i++ {
		l1 := core.NewL1(cfg, i, r, st, core.NewClock(false))
		l1.SetSink(r)
		l1.SetObservers(o)
		r.L1s = append(r.L1s, l1)
	}

	backing.Write(LineA, 7)
	backing.Write(LineB, 9)
	r.L2.Seed(LineA, 0, 10, 7)
	r.L2.Seed(LineB, 30, 10, 9) // B was written by a third core at time 30
	for _, l1 := range r.L1s {
		l1.Seed(LineA, 10, 7)
		l1.Seed(LineB, 10, 9)
	}
	r.L1s[0].Clock().AdvanceRead(20)
	return r
}

// Send implements coherence.Port.
func (r *Rig) Send(m *coherence.Msg, now timing.Cycle) {
	r.Msgs++
	r.tr.MsgSend(now, m, coherence.Flits(&r.cfg, m))
	r.tr.MsgRecv(now, m)
	if m.Dst < r.cfg.NumSMs {
		r.L1s[m.Dst].Deliver(m, now)
	} else {
		r.L2.Deliver(m, now)
	}
}

// MemDone implements coherence.Sink; callers read results straight off
// the request Op returns.
func (r *Rig) MemDone(*coherence.Request, timing.Cycle) {}

// Op issues one operation on core c and runs the rig until it drains.
func (r *Rig) Op(c int, class stats.OpClass, line, val uint64) (*coherence.Request, error) {
	r.id++
	req := &coherence.Request{ID: r.id, Class: class, Line: line, Val: val}
	if !r.L1s[c].Access(req, r.now) {
		return nil, fmt.Errorf("scenario: C%d's L1 rejected an access to line %d", c, line)
	}
	for i := 0; i < 100000; i++ {
		did := r.L2.Tick(r.now)
		for _, l1 := range r.L1s {
			if l1.Tick(r.now) {
				did = true
			}
		}
		if !did && r.L2.Drained() && r.L1s[0].Drained() && r.L1s[1].Drained() {
			return req, nil
		}
		r.now++
	}
	return nil, fmt.Errorf("scenario: walkthrough did not drain")
}

// Walkthrough runs the Fig. 3 scenario with the given fixed lease,
// narrating each operation and its result to out, with observers o
// attached to every controller. It returns the number of coherence
// messages exchanged. The run is fully deterministic: same lease, same
// bytes.
func Walkthrough(out io.Writer, lease uint64, o trace.Observers) (int, error) {
	r := NewRig(lease, o)
	fmt.Fprintf(out, "RCC message trace (Fig. 3 scenario, lease=%d)\n", lease)
	fmt.Fprintln(out, "addresses: A=line 0, B=line 1; initial C0.now=20, C1.now=0")
	fmt.Fprintln(out)
	script := []struct {
		core  int
		class stats.OpClass
		line  uint64
		val   uint64
		label string
	}{
		{0, stats.OpStore, LineA, 100, "C0: ST A = 100"},
		{0, stats.OpLoad, LineB, 0, "C0: LD B"},
		{1, stats.OpStore, LineB, 300, "C1: ST B = 300"},
		{1, stats.OpLoad, LineA, 0, "C1: LD A"},
		{0, stats.OpStore, LineB, 400, "C0: ST B = 400"},
		{0, stats.OpStore, LineA, 200, "C0: ST A = 200"},
		{1, stats.OpLoad, LineA, 0, "C1: LD A (hits stale lease - still SC!)"},
	}
	for _, s := range script {
		fmt.Fprintf(out, "%s\n", s.label)
		req, err := r.Op(s.core, s.class, s.line, s.val)
		if err != nil {
			return r.Msgs, err
		}
		c0, c1 := r.L1s[0].Clock().Now(), r.L1s[1].Clock().Now()
		if s.class == stats.OpLoad {
			fmt.Fprintf(out, "  -> value %d   (C0.now=%d C1.now=%d)\n", req.Data, c0, c1)
		} else {
			fmt.Fprintf(out, "  -> done       (C0.now=%d C1.now=%d)\n", c0, c1)
		}
	}
	return r.Msgs, nil
}
