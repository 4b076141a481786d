package noc

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

type sink struct {
	got []*coherence.Msg
	at  []timing.Cycle
	now *timing.Cycle
}

func (s *sink) Deliver(m *coherence.Msg, at timing.Cycle) {
	s.got = append(s.got, m)
	s.at = append(s.at, *s.now)
}

func build(t *testing.T) (*Network, *sink, *stats.Run, *timing.Cycle, config.Config) {
	t.Helper()
	cfg := config.Small()
	st := stats.New()
	n := New(cfg, st)
	now := new(timing.Cycle)
	s := &sink{now: now}
	for i := 0; i < cfg.NumSMs+cfg.L2Partitions; i++ {
		n.Register(i, s)
	}
	return n, s, st, now, cfg
}

func run(n *Network, now *timing.Cycle, until timing.Cycle) {
	for ; *now <= until; *now++ {
		n.Tick(*now)
	}
}

func TestUnloadedLatency(t *testing.T) {
	n, s, _, now, cfg := build(t)
	m := &coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs}
	n.Send(m, 0)
	want := n.MinLatency(cfg.ControlFlits())
	if n.NextEvent() != want {
		t.Fatalf("delivery at %d, want %d", n.NextEvent(), want)
	}
	run(n, now, want+1)
	if len(s.got) != 1 || s.got[0] != m {
		t.Fatal("message not delivered")
	}
}

func TestDataMessagesAreSlower(t *testing.T) {
	n, _, _, _, cfg := build(t)
	n.Send(&coherence.Msg{Type: coherence.Data, Src: cfg.NumSMs, Dst: 0}, 0)
	dataAt := n.NextEvent()
	n2, _, _, _, _ := build(t)
	n2.Send(&coherence.Msg{Type: coherence.Ack, Src: cfg.NumSMs, Dst: 0}, 0)
	ackAt := n2.NextEvent()
	if dataAt <= ackAt {
		t.Fatalf("data (%d) should be slower than ack (%d)", dataAt, ackAt)
	}
}

func TestInjectionSerialization(t *testing.T) {
	n, s, _, now, cfg := build(t)
	// Two messages from the same source must serialize on the injection port.
	n.Send(&coherence.Msg{Type: coherence.Write, Src: 0, Dst: cfg.NumSMs}, 0)
	n.Send(&coherence.Msg{Type: coherence.Write, Src: 0, Dst: cfg.NumSMs + 1}, 0)
	run(n, now, 2000)
	if len(s.got) != 2 {
		t.Fatalf("delivered %d messages", len(s.got))
	}
	gap := s.at[1] - s.at[0]
	ser := timing.Cycle((cfg.DataFlits() + cfg.PortFlitsPerCycle - 1) / cfg.PortFlitsPerCycle)
	if gap < ser {
		t.Fatalf("injection not serialized: gap %d < %d", gap, ser)
	}
}

func TestEjectionContention(t *testing.T) {
	n, s, _, now, cfg := build(t)
	// Different sources, same destination: ejection port serializes.
	n.Send(&coherence.Msg{Type: coherence.Data, Src: cfg.NumSMs, Dst: 0}, 0)
	n.Send(&coherence.Msg{Type: coherence.Data, Src: cfg.NumSMs + 1, Dst: 0}, 0)
	run(n, now, 2000)
	if len(s.got) != 2 {
		t.Fatalf("delivered %d messages", len(s.got))
	}
	if s.at[0] == s.at[1] {
		t.Fatal("ejection port did not serialize same-destination messages")
	}
}

func TestIndependentPortsParallel(t *testing.T) {
	n, s, _, now, cfg := build(t)
	n.Send(&coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs}, 0)
	n.Send(&coherence.Msg{Type: coherence.GetS, Src: 1, Dst: cfg.NumSMs + 1}, 0)
	run(n, now, 2000)
	if s.at[0] != s.at[1] {
		t.Fatalf("independent messages should arrive together: %d vs %d", s.at[0], s.at[1])
	}
}

func TestTrafficAccounting(t *testing.T) {
	n, _, st, _, cfg := build(t)
	n.Send(&coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs}, 0)
	n.Send(&coherence.Msg{Type: coherence.Data, Src: cfg.NumSMs, Dst: 0}, 0)
	n.Send(&coherence.Msg{Type: coherence.Renew, Src: cfg.NumSMs, Dst: 0}, 0)
	if st.Flits[stats.MsgReq] != uint64(cfg.ControlFlits()) {
		t.Fatal("request flits wrong")
	}
	if st.Flits[stats.MsgLdData] != uint64(cfg.DataFlits()) {
		t.Fatal("data flits wrong")
	}
	if st.Flits[stats.MsgRenewCt] != uint64(cfg.ControlFlits()) {
		t.Fatal("renew flits wrong")
	}
	if n.Drained() {
		t.Fatal("network should have messages in flight")
	}
}

func TestFIFOPerPortPair(t *testing.T) {
	n, s, _, now, cfg := build(t)
	for i := 0; i < 5; i++ {
		n.Send(&coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs, ReqID: uint64(i)}, 0)
	}
	run(n, now, 5000)
	for i := 0; i < 5; i++ {
		if s.got[i].ReqID != uint64(i) {
			t.Fatalf("out of order delivery: pos %d has id %d", i, s.got[i].ReqID)
		}
	}
}

func TestChooserReplacesJitter(t *testing.T) {
	n, s, _, now, cfg := build(t)
	calls := 0
	delays := []uint64{0, 100, 0}
	n.SetChooser(func() uint64 { d := delays[calls]; calls++; return d })

	base := n.MinLatency(cfg.ControlFlits())
	n.Send(&coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs}, 0)
	if calls != 1 {
		t.Fatalf("chooser called %d times after one send, want 1", calls)
	}
	if got := n.NextEvent(); got != base {
		t.Fatalf("zero-delay delivery at %d, want %d", got, base)
	}
	// A delayed message from another source must land 100 cycles later and
	// fold behind the first until both deliver.
	n.Send(&coherence.Msg{Type: coherence.GetS, Src: 1, Dst: cfg.NumSMs + 1}, 0)
	var seen []timing.Cycle
	n.FoldInflight(func(at timing.Cycle, m *coherence.Msg) { seen = append(seen, at) })
	if len(seen) != 2 || seen[0] != base || seen[1] != base+100 {
		t.Fatalf("in-flight schedule %v, want [%d %d]", seen, base, base+100)
	}
	run(n, now, base+101)
	if len(s.got) != 2 {
		t.Fatalf("delivered %d messages, want 2", len(s.got))
	}
	n.FoldInflight(func(at timing.Cycle, m *coherence.Msg) {
		t.Fatalf("in-flight set not drained: message at %d", at)
	})
	if calls != 2 {
		t.Fatalf("chooser called %d times, want 2", calls)
	}
}

func TestFoldInflightDeliveryOrder(t *testing.T) {
	n, _, _, _, cfg := build(t)
	// Later send, earlier delivery: the fold must come out in delivery
	// order, not send order.
	delays := []uint64{300, 0}
	calls := 0
	n.SetChooser(func() uint64 { d := delays[calls]; calls++; return d })
	slow := &coherence.Msg{Type: coherence.GetS, Src: 0, Dst: cfg.NumSMs}
	fast := &coherence.Msg{Type: coherence.GetS, Src: 1, Dst: cfg.NumSMs + 1}
	n.Send(slow, 0)
	n.Send(fast, 0)
	var order []*coherence.Msg
	n.FoldInflight(func(at timing.Cycle, m *coherence.Msg) { order = append(order, m) })
	if len(order) != 2 || order[0] != fast || order[1] != slow {
		t.Fatalf("fold order wrong: got %v", order)
	}
}
