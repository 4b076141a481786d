package tc

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// harness wires two TC L1s to one L2 partition directly.
type harness struct {
	cfg     config.Config
	st      *stats.Run
	l1s     []*L1
	l2      *L2
	backing *mem.Backing
	now     timing.Cycle
	done    map[uint64]*coherence.Request
	doneAt  map[uint64]timing.Cycle
	nextID  uint64
}

func (h *harness) Send(m *coherence.Msg, now timing.Cycle) {
	h.st.Traffic(m.Type.Class(), coherence.Flits(&h.cfg, m))
	if m.Dst < h.cfg.NumSMs {
		h.l1s[m.Dst].Deliver(m, now)
	} else {
		h.l2.Deliver(m, now)
	}
}

func (h *harness) MemDone(r *coherence.Request, now timing.Cycle) {
	h.done[r.ID] = r
	h.doneAt[r.ID] = now
}

func newHarness(t *testing.T, weak bool, mutate func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.Protocol = config.TCS
	if weak {
		cfg.Protocol = config.TCW
	}
	if mutate != nil {
		mutate(&cfg)
	}
	h := &harness{
		cfg:    cfg,
		st:     stats.New(),
		done:   map[uint64]*coherence.Request{},
		doneAt: map[uint64]timing.Cycle{},
	}
	h.backing = mem.NewBacking()
	dram := mem.NewDRAM(cfg, h.st)
	h.l2 = NewL2(cfg, 0, weak, h, h.st, dram, h.backing)
	for i := 0; i < cfg.NumSMs; i++ {
		l1 := NewL1(cfg, i, weak, h, h.st)
		l1.SetSink(h)
		h.l1s = append(h.l1s, l1)
	}
	return h
}

func (h *harness) pump(t *testing.T) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		did := h.l2.Tick(h.now)
		for _, l1 := range h.l1s {
			if l1.Tick(h.now) {
				did = true
			}
		}
		drained := h.l2.Drained()
		for _, l1 := range h.l1s {
			drained = drained && l1.Drained()
		}
		if drained && !did {
			return
		}
		h.now++
	}
	t.Fatal("harness did not drain")
}

func (h *harness) op(t *testing.T, c int, class stats.OpClass, line, val uint64) *coherence.Request {
	t.Helper()
	h.nextID++
	r := &coherence.Request{ID: h.nextID, Class: class, Line: line, Val: val, Issue: h.now}
	if !h.l1s[c].Access(r, h.now) {
		t.Fatalf("access rejected")
	}
	h.pump(t)
	if h.done[r.ID] == nil {
		t.Fatal("request never completed")
	}
	return r
}

func TestTCSStoreStallsForLease(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 5, 0) // grants a lease until ~now+800
	e := h.l2.tags.Lookup(5)
	if e == nil {
		t.Fatal("line not in L2")
	}
	gts := e.Meta.GTS
	start := h.now
	h.op(t, 1, stats.OpStore, 5, 7)
	if h.now <= gts {
		t.Fatalf("store completed at %d, before the lease expired at %d", h.now, gts)
	}
	if h.st.L2StoreStallCycles == 0 {
		t.Fatal("store stall cycles not recorded")
	}
	if gts <= start {
		t.Fatal("test broken: lease already expired")
	}
}

func TestTCWStoreDoesNotStall(t *testing.T) {
	h := newHarness(t, true, nil)
	h.op(t, 0, stats.OpLoad, 5, 0)
	start := h.now
	h.op(t, 1, stats.OpStore, 5, 7)
	elapsed := uint64(h.now - start)
	// The store must take only the round trip (L2 pipeline, no NoC in
	// this harness) — never a lease-scale wait.
	if elapsed > h.cfg.L2Latency+50 {
		t.Fatalf("TCW store took %d cycles (lease-scale stall)", elapsed)
	}
	if h.st.L2StoreStallCycles != 0 {
		t.Fatal("TCW must not stall stores")
	}
}

func TestTCWFenceWaitsForGWCT(t *testing.T) {
	h := newHarness(t, true, nil)
	h.op(t, 0, stats.OpLoad, 5, 0) // lease outstanding
	st := h.op(t, 1, stats.OpStore, 5, 7)
	_ = st
	// The storing warp's fence must wait until the lease expires.
	ready := h.l1s[1].FenceReadyAt(0, h.now)
	e := h.l2.tags.Lookup(5)
	if e == nil {
		t.Fatal("line absent")
	}
	if ready < e.Meta.GTS {
		t.Fatalf("fence ready at %d, lease lives until %d", ready, e.Meta.GTS)
	}
	h.l1s[1].FenceComplete(0, h.now)
	if got := h.l1s[1].FenceReadyAt(0, h.now); got != h.now {
		t.Fatal("GWCT not cleared by fence")
	}
}

func TestTCSFenceIsNoOp(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpStore, 5, 7)
	if got := h.l1s[0].FenceReadyAt(0, h.now); got != h.now {
		t.Fatal("TCS fences must be no-ops (SC cores)")
	}
}

func TestLeaseExpiryCausesRefetch(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 3, 0)
	h.op(t, 0, stats.OpLoad, 3, 0)
	if h.st.L1LoadHits != 1 {
		t.Fatalf("second load should hit; hits=%d", h.st.L1LoadHits)
	}
	h.now += timing.Cycle(h.cfg.TCLease + 1)
	h.op(t, 0, stats.OpLoad, 3, 0)
	if h.st.L1LoadExpired != 1 {
		t.Fatalf("expired load not detected; expired=%d", h.st.L1LoadExpired)
	}
	// TC has no renewal: the refetch carries full data.
	if h.st.Msgs[stats.MsgRenewCt] != 0 {
		t.Fatal("TC must not renew")
	}
}

func TestTCWritesVisibleAfterLeaseExpiry(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 9, 0)
	h.op(t, 1, stats.OpStore, 9, 42)
	h.now += timing.Cycle(h.cfg.TCLease + 1)
	r := h.op(t, 0, stats.OpLoad, 9, 0)
	if r.Data != 42 {
		t.Fatalf("stale read after lease expiry: %d", r.Data)
	}
}

func TestTCSReadersQueueBehindStalledStore(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 5, 0)
	// Issue a store (stalls at L2) and a load right behind it.
	h.nextID++
	st := &coherence.Request{ID: h.nextID, Class: stats.OpStore, Line: 5, Val: 1}
	h.l1s[1].Access(st, h.now)
	// Give the store time to reach the L2 and stall.
	for i := 0; i < int(h.cfg.L2Latency)+10; i++ {
		h.l2.Tick(h.now)
		for _, l1 := range h.l1s {
			l1.Tick(h.now)
		}
		h.now++
	}
	// Expire core 0's own L1 copy so its load goes to the L2.
	h.now += timing.Cycle(h.cfg.TCLease + 1)
	h.nextID++
	ld := &coherence.Request{ID: h.nextID, Class: stats.OpLoad, Line: 5}
	h.l1s[0].Access(ld, h.now)
	h.pump(t)
	if h.done[st.ID] == nil || h.done[ld.ID] == nil {
		t.Fatal("requests incomplete")
	}
	// The load was ordered behind the store: it must see the new value.
	if h.done[ld.ID].Data != 1 {
		t.Fatalf("queued reader saw %d, want 1", h.done[ld.ID].Data)
	}
	if h.doneAt[ld.ID] < h.doneAt[st.ID] {
		t.Fatal("queued reader finished before the blocking store")
	}
}

func TestTCAtomics(t *testing.T) {
	for _, weak := range []bool{false, true} {
		h := newHarness(t, weak, nil)
		r1 := h.op(t, 0, stats.OpAtomic, 7, 5)
		r2 := h.op(t, 1, stats.OpAtomic, 7, 3)
		if r1.Data != 0 || r2.Data != 5 {
			t.Fatalf("weak=%v: atomics returned %d,%d", weak, r1.Data, r2.Data)
		}
	}
}

func TestTCL2EvictionPinsUnexpiredLeases(t *testing.T) {
	h := newHarness(t, false, func(c *config.Config) {
		c.L2SetsPerPart = 1
		c.L2Ways = 2
	})
	h.op(t, 0, stats.OpLoad, 0, 0)
	h.op(t, 0, stats.OpLoad, 1, 0)
	// A third line must wait for a lease to lapse before filling.
	start := h.now
	h.op(t, 0, stats.OpLoad, 2, 0)
	if uint64(h.now-start) < h.cfg.TCLease/4 {
		t.Fatalf("fill completed in %d cycles; leased ways should pin the set", h.now-start)
	}
}

func TestTCWriteMissAcksImmediately(t *testing.T) {
	h := newHarness(t, false, nil)
	start := h.now
	h.op(t, 0, stats.OpStore, 77, 9)
	// No leases outstanding for an absent block: no lease stall; only
	// the round trip (well under the DRAM fill latency plus lease).
	if uint64(h.now-start) > h.cfg.TCLease {
		t.Fatalf("write miss took %d cycles", h.now-start)
	}
	h.pump(t)
	e := h.l2.tags.Lookup(77)
	if e == nil || e.Meta.Val != 9 {
		t.Fatal("merged write lost")
	}
}
