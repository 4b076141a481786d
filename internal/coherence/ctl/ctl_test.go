package ctl

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// newTestL2 returns partition 0 of config.Small with its own DRAM channel
// and no port: the tests' handle functions send nothing.
func newTestL2() *L2 {
	cfg := config.Small()
	st := stats.New()
	c := NewL2(cfg, 0, nil, st, mem.NewDRAM(cfg, st), mem.NewBacking())
	return &c
}

// TestL2ParksRefusedHead: a refused request parks the partition, so
// NextEvent neither asks for the next cycle nor counts the pipe behind
// the head; a DRAM fill wakes it and the Tick at the fill's cycle retries
// the head, as does a Serve after Requeue.
func TestL2ParksRefusedHead(t *testing.T) {
	c := newTestL2()
	full := true // the partition's MSHR table
	var took []*coherence.Msg
	handle := func(m *coherence.Msg, _ timing.Cycle) bool {
		if full {
			return false
		}
		took = append(took, m)
		return true
	}
	a, b := &coherence.Msg{Line: 1}, &coherence.Msg{Line: 2}
	c.Deliver(a, 0)
	c.Deliver(b, 1)
	now := timing.Cycle(c.Cfg.L2Latency)

	// A refused pipe entry is deferred, counts as work and parks.
	if !c.Serve(now, handle) || !c.Parked() {
		t.Fatalf("refused pipe entry: parked %v, want a served, parked partition", c.Parked())
	}
	if got := c.NextEvent(now); got != timing.Never {
		t.Fatalf("parked NextEvent = %d, want Never (b is ready at %d but behind the head)", got, now+1)
	}
	if c.Serve(now+1, handle) || !c.Parked() {
		t.Fatal("a refused retry did work or unparked")
	}

	// A DRAM fetch completes: the fill frees the MSHR, and Serve on the
	// same cycle takes the head.
	now++
	c.DRAM.Submit(mem.DRAMReq{Line: 7, ID: 7}, now)
	filled := false
	for !filled {
		next := c.NextEvent(now)
		if next == timing.Never || next < now {
			t.Fatalf("parked NextEvent = %d at %d with a DRAM fetch pending", next, now)
		}
		now = next
		c.DrainDRAM(now, func(uint64, timing.Cycle) { full, filled = false, true })
		if !filled && c.Serve(now, handle) {
			t.Fatalf("cycle %d: the head was taken before the fill", now)
		}
	}
	if !c.Serve(now, handle) || c.Parked() || len(took) != 1 || took[0] != a {
		t.Fatalf("after the fill at %d: took %v, parked %v; want a taken that cycle", now, took, c.Parked())
	}
	if got := c.NextEvent(now); got > now {
		t.Fatalf("unparked NextEvent = %d, want b's ready cycle (past)", got)
	}

	// b is refused and parks; a Requeue (the rollover) rewrites it and
	// unparks, and Serve takes it on that same cycle.
	full = true
	now++
	if !c.Serve(now, handle) || !c.Parked() {
		t.Fatal("b was not refused and parked")
	}
	if got := c.NextEvent(now); got != timing.Never {
		t.Fatalf("parked NextEvent = %d, want Never with no DRAM work", got)
	}
	now += 5
	c.Requeue(now, func(*coherence.Msg) { full = false })
	if c.Parked() || c.NextEvent(now) != now+1 {
		t.Fatalf("after Requeue: parked %v, NextEvent %d; want unparked, %d", c.Parked(), c.NextEvent(now), now+1)
	}
	if !c.Serve(now, handle) || len(took) != 2 || took[1] != b || !c.Idle() {
		t.Fatalf("after Requeue at %d: took %v, idle %v; want b taken", now, took, c.Idle())
	}
}

// TestL2DeferredReused: the deferred list returns to its start when it
// drains, keeps no popped request reachable, and stays small when it
// never drains.
func TestL2DeferredReused(t *testing.T) {
	c := newTestL2()
	take := func(*coherence.Msg, timing.Cycle) bool { return true }
	for i := 0; i < 3; i++ {
		c.Defer(&coherence.Msg{Line: uint64(i)})
	}
	for i := 0; i < 3; i++ {
		c.Serve(timing.Cycle(i), take)
	}
	if len(c.deferred) != 0 || c.dHead != 0 {
		t.Fatalf("drained list: len %d, head %d; want both 0", len(c.deferred), c.dHead)
	}
	for i, m := range c.deferred[:cap(c.deferred)] {
		if m != nil {
			t.Fatalf("slot %d still holds a served request", i)
		}
	}
	// One request always waits: the live window creeps, and Defer must
	// compact it instead of growing the array.
	c.Defer(&coherence.Msg{})
	for i := 0; i < 1000; i++ {
		c.Defer(&coherence.Msg{})
		c.Serve(timing.Cycle(i), take)
	}
	if len(c.deferred)-c.dHead != 1 || cap(c.deferred) > 4 {
		t.Fatalf("live %d, cap %d; want 1 live in at most 4 slots", len(c.deferred)-c.dHead, cap(c.deferred))
	}
}
