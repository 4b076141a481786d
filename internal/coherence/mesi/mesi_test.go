package mesi

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

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
	wire    timing.Queue[*coherence.Msg]
}

// wireDelay models the interconnect one-way latency in this harness.
const wireDelay = 50

func (h *harness) Send(m *coherence.Msg, now timing.Cycle) {
	h.st.Traffic(m.Type.Class(), coherence.Flits(&h.cfg, m))
	h.wire.Push(now+wireDelay, m)
}

func (h *harness) route(m *coherence.Msg) {
	// Routing happens before this cycle's L2 tick, so the delivery
	// timestamp the L2 would have tracked is the previous cycle.
	if m.Dst < h.cfg.NumSMs {
		h.l1s[m.Dst].Deliver(m, h.now-1)
	} else {
		h.l2.Deliver(m, h.now-1)
	}
}

func (h *harness) MemDone(r *coherence.Request, now timing.Cycle) {
	h.done[r.ID] = r
	h.doneAt[r.ID] = now
}

func newHarness(t *testing.T, ideal bool, mutate func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Small()
	cfg.NumSMs = 3
	cfg.L2Partitions = 1
	cfg.Protocol = config.MESI
	if ideal {
		cfg.Protocol = config.SCIdeal
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
	zap := func(core int, line uint64) { h.l1s[core].Zap(line) }
	h.l2 = NewL2(cfg, 0, ideal, h, h.st, dram, h.backing, zap)
	for i := 0; i < cfg.NumSMs; i++ {
		l1 := NewL1(cfg, i, h, h.st)
		l1.SetSink(h)
		h.l1s = append(h.l1s, l1)
	}
	return h
}

func (h *harness) pump(t *testing.T) {
	t.Helper()
	for i := 0; i < 200000; i++ {
		did := false
		for {
			m, ok := h.wire.PopReady(h.now)
			if !ok {
				break
			}
			h.route(m)
			did = true
		}
		if h.l2.Tick(h.now) {
			did = true
		}
		for _, l1 := range h.l1s {
			if l1.Tick(h.now) {
				did = true
			}
		}
		drained := h.l2.Drained() && h.wire.Len() == 0
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
		t.Fatal("access rejected")
	}
	h.pump(t)
	if h.done[r.ID] == nil {
		t.Fatal("request never completed")
	}
	return r
}

func TestLoadMissAndHit(t *testing.T) {
	h := newHarness(t, false, nil)
	h.backing.Write(5, 99)
	r := h.op(t, 0, stats.OpLoad, 5, 0)
	if r.Data != 99 {
		t.Fatalf("load = %d, want 99", r.Data)
	}
	r = h.op(t, 0, stats.OpLoad, 5, 0)
	if h.st.L1LoadHits != 1 || r.Data != 99 {
		t.Fatal("second load should hit in L1")
	}
}

func TestStoreInvalidatesSharers(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 5, 0) // core 0 caches the line
	h.op(t, 1, stats.OpLoad, 5, 0) // core 1 caches the line
	noInv := h.st.Invalidations
	h.op(t, 2, stats.OpStore, 5, 42)
	if h.st.Invalidations != noInv+2 {
		t.Fatalf("invalidations = %d, want +2", h.st.Invalidations)
	}
	// Both sharers must now miss and observe the new value.
	missBefore := h.st.L1LoadMisses
	r := h.op(t, 0, stats.OpLoad, 5, 0)
	if r.Data != 42 || h.st.L1LoadMisses != missBefore+1 {
		t.Fatalf("core 0 read %d (misses %d)", r.Data, h.st.L1LoadMisses)
	}
}

func TestStoreToUnsharedLineNoInvs(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpStore, 6, 1)
	if h.st.Invalidations != 0 {
		t.Fatal("store to unshared line must not invalidate")
	}
}

func TestWriterDoesNotInvalidateItself(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 6, 0)
	h.op(t, 0, stats.OpStore, 6, 1) // own copy self-invalidated at issue
	if h.st.Invalidations != 0 {
		t.Fatal("no INV messages expected for a self-shared line")
	}
}

func TestStoreWaitsForInvAcks(t *testing.T) {
	h := newHarness(t, false, nil)
	h.op(t, 0, stats.OpLoad, 5, 0)
	h.op(t, 1, stats.OpLoad, 5, 0)
	// Unshared store for latency baseline (line resident in L2 and
	// cached only by the writer itself, which self-invalidates).
	h.op(t, 2, stats.OpLoad, 99, 0)
	base0 := h.now
	h.op(t, 2, stats.OpStore, 99, 1)
	baseline := h.now - base0
	// Pre-populate line 98 as shared by two other cores, then store.
	h.op(t, 0, stats.OpLoad, 98, 0)
	h.op(t, 1, stats.OpLoad, 98, 0)
	start := h.now
	h.op(t, 2, stats.OpStore, 98, 1)
	shared := h.now - start
	if shared <= baseline {
		t.Fatalf("shared store (%d) not slower than unshared (%d)", shared, baseline)
	}
}

func TestIdealStoreSkipsInvRound(t *testing.T) {
	h := newHarness(t, true, nil)
	h.op(t, 0, stats.OpLoad, 5, 0)
	h.op(t, 1, stats.OpLoad, 5, 0)
	h.op(t, 2, stats.OpStore, 5, 42)
	if h.st.Invalidations != 0 {
		t.Fatal("SC-IDEAL must not send INVs")
	}
	// Sharers were zapped: the next read observes the new value.
	r := h.op(t, 0, stats.OpLoad, 5, 0)
	if r.Data != 42 {
		t.Fatalf("ideal zap failed: read %d", r.Data)
	}
}

func TestAtomics(t *testing.T) {
	h := newHarness(t, false, nil)
	r1 := h.op(t, 0, stats.OpAtomic, 7, 5)
	r2 := h.op(t, 1, stats.OpAtomic, 7, 3)
	r3 := h.op(t, 2, stats.OpLoad, 7, 0)
	if r1.Data != 0 || r2.Data != 5 || r3.Data != 8 {
		t.Fatalf("atomics: %d %d %d", r1.Data, r2.Data, r3.Data)
	}
}

func TestL2EvictionRecallsSharers(t *testing.T) {
	h := newHarness(t, false, func(c *config.Config) {
		c.L2SetsPerPart = 1
		c.L2Ways = 2
	})
	h.op(t, 0, stats.OpLoad, 0, 0)
	h.op(t, 1, stats.OpLoad, 1, 0)
	h.op(t, 2, stats.OpLoad, 2, 0) // evicts line 0 or 1 -> recall
	if h.st.Recalls == 0 {
		t.Fatal("eviction of a shared line must recall")
	}
	if h.st.Invalidations == 0 {
		t.Fatal("recall must invalidate the L1 copy")
	}
}

func TestRecalledLineRereadsFresh(t *testing.T) {
	h := newHarness(t, false, func(c *config.Config) {
		c.L2SetsPerPart = 1
		c.L2Ways = 2
	})
	h.op(t, 0, stats.OpLoad, 0, 0)
	h.op(t, 1, stats.OpLoad, 1, 0)
	h.op(t, 2, stats.OpLoad, 2, 0) // forces a recall + eviction
	// Whatever was evicted, all three lines must still read correctly.
	h.backing.Write(0, 0) // unchanged
	for line := uint64(0); line < 3; line++ {
		r := h.op(t, 2, stats.OpLoad, line, 0)
		if r.Data != 0 {
			t.Fatalf("line %d read %d after recall", line, r.Data)
		}
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	h := newHarness(t, false, func(c *config.Config) {
		c.L2SetsPerPart = 1
		c.L2Ways = 2
	})
	h.op(t, 0, stats.OpStore, 0, 77)
	h.op(t, 0, stats.OpLoad, 1, 0)
	h.op(t, 0, stats.OpLoad, 2, 0) // evicts something
	h.op(t, 0, stats.OpLoad, 3, 0) // evicts more: line 0 must be gone
	h.pump(t)
	if h.backing.Read(0) != 77 && h.l2.tags.Lookup(0) == nil {
		t.Fatal("dirty eviction lost the write")
	}
}

func TestInvAckToUncachedLineStillAcks(t *testing.T) {
	h := newHarness(t, false, nil)
	// Core 0 loads, silently evicts (we force via Zap to simulate L1
	// replacement), then the directory still thinks it shares.
	h.op(t, 0, stats.OpLoad, 5, 0)
	h.l1s[0].Zap(5)
	// A remote store must still complete (stale sharer bit acks anyway).
	r := h.op(t, 1, stats.OpStore, 5, 3)
	if h.done[r.ID] == nil {
		t.Fatal("store hung on a stale sharer")
	}
}
