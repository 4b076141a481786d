// Package scenario builds small, hand-seeded protocol fragments whose
// traces are short enough to read end to end. Walkthrough is the paper's
// Fig. 3 two-core RCC example: it drives a seven-operation script through
// real core.L1/core.L2 controllers over a zero-latency wire and narrates
// the outcome, while every coherence message, lease event, and clock
// advance lands on a shared trace.Bus for whatever sinks the caller
// registered (the legible TextSink in cmd/rcctrace, JSONL for the golden
// test, Perfetto for a timeline).
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

// busPort is a zero-latency wire: each message is recorded on the event
// bus (send and delivery at the same cycle) and handed straight to its
// destination. Interconnect latency is irrelevant to the walkthrough —
// only message ordering and the timestamps carried matter.
type busPort struct {
	cfg  config.Config
	l1s  []*core.L1
	l2   *core.L2
	tr   *trace.Bus
	msgs int
}

func (p *busPort) Send(m *coherence.Msg, now timing.Cycle) {
	p.msgs++
	p.tr.MsgSend(now, m, coherence.Flits(&p.cfg, m))
	p.tr.MsgRecv(now, m)
	if m.Dst < p.cfg.NumSMs {
		p.l1s[m.Dst].Deliver(m, now)
	} else {
		p.l2.Deliver(m, now)
	}
}

// memSink absorbs L1 completions; the walkthrough reads results straight
// off the request structs.
type memSink struct{}

func (memSink) MemDone(r *coherence.Request, now timing.Cycle) {}

// Walkthrough runs the Fig. 3 scenario with the given fixed lease,
// narrating each operation and its result to out and emitting the full
// event stream onto tr (which may be nil). It returns the number of
// coherence messages exchanged. The run is fully deterministic: same
// lease, same bytes.
func Walkthrough(out io.Writer, lease uint64, tr *trace.Bus) (int, error) {
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.RCCPredictor = false
	cfg.RCCFixedLease = lease
	cfg.RCCLivelockTick = 0

	st := stats.New()
	backing := mem.NewBacking()
	dram := mem.NewDRAM(cfg, st)
	dram.SetTracer(tr, 0)
	port := &busPort{cfg: cfg, tr: tr}
	port.l2 = core.NewL2(cfg, 0, port, st, dram, backing, nil)
	port.l2.SetTracer(tr)
	for i := 0; i < 2; i++ {
		l1 := core.NewL1(cfg, i, port, st, core.NewClock(false))
		l1.SetSink(memSink{})
		l1.SetTracer(tr)
		port.l1s = append(port.l1s, l1)
	}

	// Fig. 3 initial state: both cores hold valid copies of A and B, and
	// C0's clock has already run past the seeded lease on A.
	backing.Write(0, 7)
	backing.Write(1, 9)
	port.l2.Seed(0, 0, 10, 7)  // A
	port.l2.Seed(1, 30, 10, 9) // B
	port.l1s[0].Seed(0, 10, 7)
	port.l1s[0].Seed(1, 10, 9)
	port.l1s[1].Seed(0, 10, 7)
	port.l1s[1].Seed(1, 10, 9)
	port.l1s[0].Clock().AdvanceRead(20)

	var now timing.Cycle
	pump := func() error {
		for i := 0; i < 100000; i++ {
			did := port.l2.Tick(now)
			for _, l1 := range port.l1s {
				if l1.Tick(now) {
					did = true
				}
			}
			drained := port.l2.Drained() && port.l1s[0].Drained() && port.l1s[1].Drained()
			if drained && !did {
				return nil
			}
			now++
		}
		return fmt.Errorf("scenario: walkthrough did not drain")
	}

	var id uint64
	op := func(c int, class stats.OpClass, line, val uint64, label string) error {
		fmt.Fprintf(out, "%s\n", label)
		id++
		r := &coherence.Request{ID: id, Class: class, Line: line, Val: val}
		if !port.l1s[c].Access(r, now) {
			return fmt.Errorf("scenario: %q rejected by L1", label)
		}
		if err := pump(); err != nil {
			return err
		}
		if class == stats.OpLoad {
			fmt.Fprintf(out, "  -> value %d   (C0.now=%d C1.now=%d)\n",
				r.Data, port.l1s[0].Clock().Now(), port.l1s[1].Clock().Now())
		} else {
			fmt.Fprintf(out, "  -> done       (C0.now=%d C1.now=%d)\n",
				port.l1s[0].Clock().Now(), port.l1s[1].Clock().Now())
		}
		return nil
	}

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
		{0, stats.OpStore, 0, 100, "C0: ST A = 100"},
		{0, stats.OpLoad, 1, 0, "C0: LD B"},
		{1, stats.OpStore, 1, 300, "C1: ST B = 300"},
		{1, stats.OpLoad, 0, 0, "C1: LD A"},
		{0, stats.OpStore, 1, 400, "C0: ST B = 400"},
		{0, stats.OpStore, 0, 200, "C0: ST A = 200"},
		{1, stats.OpLoad, 0, 0, "C1: LD A (hits stale lease - still SC!)"},
	}
	for _, s := range script {
		if err := op(s.core, s.class, s.line, s.val, s.label); err != nil {
			return port.msgs, err
		}
	}
	return port.msgs, nil
}
