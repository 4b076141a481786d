package core

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// harness wires N RCC L1s to one L2 partition through a zero-configuration
// in-process "wire" (messages still traverse the L2 pipeline latency).
type harness struct {
	cfg     config.Config
	st      *stats.Run
	l1s     []*L1
	l2      *L2
	dram    *mem.DRAM
	backing *mem.Backing
	now     timing.Cycle
	done    map[uint64]*coherence.Request
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
}

func newHarness(t *testing.T, mutate func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Small()
	cfg.NumSMs = 2
	cfg.L2Partitions = 1
	cfg.Protocol = config.RCC
	cfg.RCCLivelockTick = 0 // keep logical time fully under test control
	if mutate != nil {
		mutate(&cfg)
	}
	h := &harness{cfg: cfg, st: stats.New(), done: map[uint64]*coherence.Request{}}
	h.backing = mem.NewBacking()
	h.dram = mem.NewDRAM(cfg, h.st)
	h.l2 = NewL2(cfg, 0, h, h.st, h.dram, h.backing, nil)
	wo := cfg.Protocol == config.RCCWO
	for i := 0; i < cfg.NumSMs; i++ {
		l1 := NewL1(cfg, i, h, h.st, NewClock(wo))
		l1.SetSink(h)
		h.l1s = append(h.l1s, l1)
	}
	return h
}

// pump runs ticks until everything drains or the limit is hit.
func (h *harness) pump(t *testing.T) {
	t.Helper()
	for i := 0; i < 100000; i++ {
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

// op issues a single access on core c and runs it to completion.
func (h *harness) op(t *testing.T, c int, class stats.OpClass, line, val uint64) *coherence.Request {
	t.Helper()
	h.nextID++
	r := &coherence.Request{ID: h.nextID, Class: class, Line: line, Val: val, Issue: h.now}
	if !h.l1s[c].Access(r, h.now) {
		t.Fatalf("access rejected (core %d line %d)", c, line)
	}
	h.pump(t)
	if h.done[r.ID] == nil {
		t.Fatalf("request %d never completed", r.ID)
	}
	return r
}

// seedL2 installs a block directly in the L2 (test setup only).
func (h *harness) seedL2(line, ver, exp, val uint64) {
	e, _, ok := h.l2.tags.Allocate(line, nil)
	if !ok {
		panic("seed failed")
	}
	e.Meta = l2Line{Ver: ver, Exp: exp, Val: val, Pred: h.cfg.RCCFixedLease}
}

// seedL1 installs a leased copy directly in an L1 (test setup only).
func (h *harness) seedL1(c int, line, exp, val uint64) {
	e, _, ok := h.l1s[c].tags.Allocate(line, nil)
	if !ok {
		panic("seed failed")
	}
	e.Meta = l1Line{Exp: exp, Val: val}
}

func (h *harness) l2meta(line uint64) l2Line {
	e := h.l2.tags.Lookup(line)
	if e == nil {
		return l2Line{}
	}
	return e.Meta
}

// TestFig3Walkthrough reproduces the example of Fig. 3 exactly: two cores,
// addresses A and B, lease duration 10, checking every tracked timestamp
// after each of the seven instructions and the final stale read.
func TestFig3Walkthrough(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCPredictor = false
		c.RCCFixedLease = 10
	})
	const (
		A = uint64(0)
		B = uint64(1)
	)
	const (
		oldA = 7
		oldB = 9
	)
	// Initial state from Fig. 3: C0.now=20 with expired copies of A and
	// B; C1.now=0 with valid copies; L2 A{ver 0, exp 10}, B{ver 30, exp
	// 10} (B written by a third core).
	h.backing.Write(A, oldA)
	h.backing.Write(B, oldB)
	h.seedL2(A, 0, 10, oldA)
	h.seedL2(B, 30, 10, oldB)
	h.seedL1(0, A, 10, oldA)
	h.seedL1(0, B, 10, oldB)
	h.seedL1(1, A, 10, oldA)
	h.seedL1(1, B, 10, oldB)
	h.l1s[0].clk.AdvanceRead(20)
	// C1.now stays 0.

	type state struct {
		c0, c1                 uint64 // core clocks
		aVer, aExp, bVer, bExp uint64 // L2 metadata
	}
	check := func(step string, want state) {
		t.Helper()
		a, b := h.l2meta(A), h.l2meta(B)
		got := state{
			c0: h.l1s[0].clk.Now(), c1: h.l1s[1].clk.Now(),
			aVer: a.Ver, aExp: a.Exp, bVer: b.Ver, bExp: b.Exp,
		}
		if got != want {
			t.Fatalf("%s:\n got %+v\nwant %+v", step, got, want)
		}
	}

	check("initial", state{c0: 20, c1: 0, aVer: 0, aExp: 10, bVer: 30, bExp: 10})

	// 1. C0: ST A — rule 2 sets A.ver to C0.now (20); C0 does not stall.
	h.op(t, 0, stats.OpStore, A, 100)
	check("ST A (C0)", state{c0: 20, c1: 0, aVer: 20, aExp: 10, bVer: 30, bExp: 10})

	// 2. C0: LD B — new lease until 40; rule 1 advances C0 past ver 30.
	r := h.op(t, 0, stats.OpLoad, B, 0)
	if r.Data != oldB {
		t.Fatalf("LD B returned %d, want %d", r.Data, oldB)
	}
	check("LD B (C0)", state{c0: 30, c1: 0, aVer: 20, aExp: 10, bVer: 30, bExp: 40})

	// 3. C1: ST B — rule 3 pushes B.ver past the outstanding lease (41)
	// and the ack drags C1.now along.
	h.op(t, 1, stats.OpStore, B, 300)
	check("ST B (C1)", state{c0: 30, c1: 41, aVer: 20, aExp: 10, bVer: 41, bExp: 40})

	// 4. C1: LD A — C1's copy expired (now 41 > exp 10), so it refetches
	// and must observe C0's write (SC enforcement across cores).
	r = h.op(t, 1, stats.OpLoad, A, 0)
	if r.Data != 100 {
		t.Fatalf("LD A returned %d, want 100 (C0's store)", r.Data)
	}
	check("LD A (C1)", state{c0: 30, c1: 41, aVer: 20, aExp: 51, bVer: 41, bExp: 40})

	// 5. C0: ST B — consecutive unobserved stores share version 41
	// (footnote 2); C0.now advances to 41.
	h.op(t, 0, stats.OpStore, B, 400)
	check("ST B (C0)", state{c0: 41, c1: 41, aVer: 20, aExp: 51, bVer: 41, bExp: 40})

	// 6. C0: ST A — past A's lease (exp 51): ver 52.
	h.op(t, 0, stats.OpStore, A, 200)
	check("ST A (C0) #2", state{c0: 52, c1: 41, aVer: 52, aExp: 51, bVer: 41, bExp: 40})

	// 7. C1: LD A — C1.now (41) has not passed its lease (51): the load
	// hits locally and returns the OLD value 100; the execution remains
	// SC (C1's load is logically before C0's second store).
	hitsBefore := h.st.L1LoadHits
	r = h.op(t, 1, stats.OpLoad, A, 0)
	if r.Data != 100 {
		t.Fatalf("final LD A returned %d, want stale 100", r.Data)
	}
	if h.st.L1LoadHits != hitsBefore+1 {
		t.Fatal("final LD A should be an L1 hit")
	}
	check("LD A (C1) #2", state{c0: 52, c1: 41, aVer: 52, aExp: 51, bVer: 41, bExp: 40})
}

func TestLoadMissFetchesFromDRAM(t *testing.T) {
	h := newHarness(t, nil)
	h.backing.Write(5, 77)
	r := h.op(t, 0, stats.OpLoad, 5, 0)
	if r.Data != 77 {
		t.Fatalf("load returned %d, want 77", r.Data)
	}
	if h.st.L1LoadMisses != 1 || h.st.L2Misses != 1 || h.st.DRAMReads != 1 {
		t.Fatalf("miss counters: %+v", h.st)
	}
	// Second load hits in L1.
	r = h.op(t, 0, stats.OpLoad, 5, 0)
	if r.Data != 77 || h.st.L1LoadHits != 1 {
		t.Fatal("second load should hit in L1")
	}
}

func TestStoreDoesNotStallOnOutstandingLeases(t *testing.T) {
	h := newHarness(t, nil)
	// Core 0 reads the line, acquiring a long lease.
	h.op(t, 0, stats.OpLoad, 3, 0)
	// Core 1 stores: in RCC the ack must not wait for the lease to
	// expire; the write completes in one L2 round trip.
	start := h.now
	h.op(t, 1, stats.OpStore, 3, 9)
	elapsed := uint64(h.now - start)
	roundTrip := 4 * (h.cfg.L2Latency + h.cfg.NoCPipeLatency + uint64(h.cfg.DataFlits()))
	if elapsed > roundTrip {
		t.Fatalf("store took %d cycles; leases must not delay acks", elapsed)
	}
	if h.st.L2StoreStallCycles != 0 {
		t.Fatal("RCC must not record store stall cycles")
	}
}

func TestWriterAdvancesPastLease(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCPredictor = false
		c.RCCFixedLease = 100
	})
	h.op(t, 0, stats.OpLoad, 3, 0) // lease until ~mnow+100
	exp := h.l2meta(3).Exp
	h.op(t, 1, stats.OpStore, 3, 9)
	if got := h.l2meta(3).Ver; got != exp+1 {
		t.Fatalf("ver after store = %d, want exp+1 = %d", got, exp+1)
	}
	if h.l1s[1].clk.Now() != exp+1 {
		t.Fatalf("writer clock = %d, want %d", h.l1s[1].clk.Now(), exp+1)
	}
	// The reader's copy self-invalidates only once its clock passes exp:
	// it can still read the old value right now (relativistic reads).
	if got := h.l1s[0].clk.Now(); got > exp {
		t.Fatalf("reader clock advanced spuriously to %d", got)
	}
}

func TestReaderForcedForwardByVersion(t *testing.T) {
	h := newHarness(t, nil)
	h.op(t, 0, stats.OpStore, 4, 1) // establishes some version v
	v := h.l2meta(4).Ver
	h.op(t, 1, stats.OpLoad, 4, 0)
	if h.l1s[1].clk.Now() < v {
		t.Fatalf("rule 1 violated: reader clock %d < version %d", h.l1s[1].clk.Now(), v)
	}
}

func TestVIStateReadableUntilAck(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCPredictor = false
		c.RCCFixedLease = 1000
	})
	// Prime a valid copy at core 0.
	h.op(t, 0, stats.OpLoad, 6, 0)
	// Issue a store (moves the line to VI) but do NOT pump: the ack is
	// still in flight.
	h.nextID++
	st := &coherence.Request{ID: h.nextID, Class: stats.OpStore, Line: 6, Val: 5}
	if !h.l1s[0].Access(st, h.now) {
		t.Fatal("store rejected")
	}
	// Another warp's load while in VI must hit on the pre-write copy.
	h.nextID++
	ld := &coherence.Request{ID: h.nextID, Class: stats.OpLoad, Line: 6, Warp: 1}
	if !h.l1s[0].Access(ld, h.now) {
		t.Fatal("load rejected")
	}
	if h.done[ld.ID] == nil {
		t.Fatal("VI read did not complete immediately")
	}
	if h.done[ld.ID].Data != 0 {
		t.Fatalf("VI read returned %d, want pre-write 0", h.done[ld.ID].Data)
	}
	h.pump(t)
	if h.done[st.ID] == nil {
		t.Fatal("store never acked")
	}
	// After the ack the block is I: next load misses.
	miss := h.st.L1LoadMisses
	h.op(t, 0, stats.OpLoad, 6, 0)
	if h.st.L1LoadMisses != miss+1 {
		t.Fatal("block should be invalid after store ack")
	}
}

func TestAtomicFetchAdd(t *testing.T) {
	h := newHarness(t, nil)
	r1 := h.op(t, 0, stats.OpAtomic, 8, 5)
	if r1.Data != 0 {
		t.Fatalf("first atomic returned %d, want 0", r1.Data)
	}
	r2 := h.op(t, 1, stats.OpAtomic, 8, 3)
	if r2.Data != 5 {
		t.Fatalf("second atomic returned %d, want 5", r2.Data)
	}
	r3 := h.op(t, 0, stats.OpLoad, 8, 0)
	if r3.Data != 8 {
		t.Fatalf("load after atomics returned %d, want 8", r3.Data)
	}
}

func TestRenewalSendsNoData(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCPredictor = false
		c.RCCFixedLease = 10
	})
	h.op(t, 0, stats.OpLoad, 2, 0)
	// Expire the copy by advancing the core's logical clock far ahead
	// (e.g. it synchronized on another address).
	h.l1s[0].clk.AdvanceRead(h.l2meta(2).Exp + 1)
	ldBefore := h.st.Flits[stats.MsgLdData]
	h.op(t, 0, stats.OpLoad, 2, 0)
	if h.st.L1Renewed != 1 {
		t.Fatalf("renewed = %d, want 1", h.st.L1Renewed)
	}
	if h.st.Flits[stats.MsgRenewCt] == 0 {
		t.Fatal("no renew traffic recorded")
	}
	if h.st.Flits[stats.MsgLdData] != ldBefore {
		t.Fatal("renewal must not carry data")
	}
	if h.st.ExpiredGets != 1 || h.st.ExpiredGetsRenewable != 1 {
		t.Fatalf("expired-gets counters: %d/%d", h.st.ExpiredGets, h.st.ExpiredGetsRenewable)
	}
}

func TestRenewalRefusedAfterRemoteWrite(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCPredictor = false
		c.RCCFixedLease = 10
	})
	h.op(t, 0, stats.OpLoad, 2, 0)
	h.op(t, 1, stats.OpStore, 2, 42)          // bumps ver past core 0's lease
	h.l1s[0].clk.AdvanceRead(h.l2meta(2).Ver) // simulate synchronization
	r := h.op(t, 0, stats.OpLoad, 2, 0)
	if r.Data != 42 {
		t.Fatalf("stale data after remote write: %d", r.Data)
	}
	if h.st.L1Renewed != 0 {
		t.Fatal("renewal must be refused when the block changed")
	}
	if h.st.ExpiredGets != 1 || h.st.ExpiredGetsRenewable != 0 {
		t.Fatalf("expired-gets counters: %d/%d", h.st.ExpiredGets, h.st.ExpiredGetsRenewable)
	}
}

func TestPredictorDropsOnWriteGrowsOnRenew(t *testing.T) {
	h := newHarness(t, nil) // predictor on
	h.op(t, 0, stats.OpLoad, 2, 0)
	if got := h.l2meta(2).Pred; got != h.cfg.RCCMaxLease {
		t.Fatalf("initial prediction = %d, want max %d", got, h.cfg.RCCMaxLease)
	}
	h.op(t, 1, stats.OpStore, 2, 1)
	if got := h.l2meta(2).Pred; got != h.cfg.RCCMinLease {
		t.Fatalf("post-write prediction = %d, want min %d", got, h.cfg.RCCMinLease)
	}
	// Refetch fresh data (the old lease predates the write, so this is
	// a full DATA response), expire without a further write, reload:
	// the renewal succeeds and the prediction doubles.
	h.l1s[0].clk.AdvanceRead(h.l2meta(2).Exp + 1)
	h.op(t, 0, stats.OpLoad, 2, 0)
	h.l1s[0].clk.AdvanceRead(h.l2meta(2).Exp + 1)
	h.op(t, 0, stats.OpLoad, 2, 0)
	if got := h.l2meta(2).Pred; got != 2*h.cfg.RCCMinLease {
		t.Fatalf("post-renew prediction = %d, want %d", got, 2*h.cfg.RCCMinLease)
	}
	if h.st.PredictorGrows == 0 || h.st.PredictorDrops == 0 {
		t.Fatal("predictor counters not recorded")
	}
}

func TestL2EvictionFoldsIntoMnow(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.L2SetsPerPart = 1
		c.L2Ways = 2
	})
	h.op(t, 0, stats.OpStore, 0, 1)
	ver0 := h.l2meta(0).Ver
	exp0 := h.l2meta(0).Exp
	// Fill the set to force eviction of line 0.
	h.op(t, 0, stats.OpLoad, 1, 0)
	h.op(t, 0, stats.OpLoad, 2, 0)
	h.op(t, 0, stats.OpLoad, 3, 0)
	if h.st.L2Evictions == 0 {
		t.Fatal("no L2 eviction happened")
	}
	if h.l2.MNow() < maxU(ver0, exp0) {
		t.Fatalf("mnow %d below evicted block's timestamps %d/%d", h.l2.MNow(), ver0, exp0)
	}
	// Refetching line 0 must seed ver/exp from mnow so stale leases for
	// it can never be outlived.
	h.op(t, 1, stats.OpLoad, 0, 0)
	if got := h.l2meta(0).Ver; got < h.l2.MNow() && got < ver0 {
		t.Fatalf("refetched ver %d predates mnow", got)
	}
	// The dirty eviction must have written back: the backing store holds
	// the stored value.
	if h.backing.Read(0) != 1 {
		t.Fatalf("writeback lost: backing = %d", h.backing.Read(0))
	}
}

func TestL2WriteMissAcksBeforeFill(t *testing.T) {
	h := newHarness(t, nil)
	h.nextID++
	r := &coherence.Request{ID: h.nextID, Class: stats.OpStore, Line: 9, Val: 3}
	if !h.l1s[0].Access(r, h.now) {
		t.Fatal("store rejected")
	}
	// Run only until the ack arrives; it must beat the DRAM fill.
	ackAt := timing.Never
	fillPending := true
	for i := 0; i < 100000 && (ackAt == timing.Never || fillPending); i++ {
		h.l2.Tick(h.now)
		for _, l1 := range h.l1s {
			l1.Tick(h.now)
		}
		if h.done[r.ID] != nil && ackAt == timing.Never {
			ackAt = h.now
			if h.l2.mshrs.Get(9) == nil {
				t.Fatal("ack arrived after the fill completed — store waited for DRAM")
			}
		}
		fillPending = h.l2.mshrs.Get(9) != nil || h.dram.Pending() > 0
		h.now++
	}
	if ackAt == timing.Never {
		t.Fatal("store never acked")
	}
	h.pump(t)
	if got := h.l2meta(9).Val; got != 3 {
		t.Fatalf("merged write lost: L2 val = %d", got)
	}
}

func TestL2WriteMergingNewestWins(t *testing.T) {
	h := newHarness(t, nil)
	// Advance core 1's clock so its write is logically newer.
	h.l1s[1].clk.AdvanceWrite(500)
	h.nextID++
	r0 := &coherence.Request{ID: h.nextID, Class: stats.OpStore, Line: 11, Val: 10}
	h.nextID++
	r1 := &coherence.Request{ID: h.nextID, Class: stats.OpStore, Line: 11, Val: 20}
	// Issue the logically-newer write FIRST so that the older one
	// arrives second and must not clobber the data.
	if !h.l1s[1].Access(r1, h.now) || !h.l1s[0].Access(r0, h.now) {
		t.Fatal("store rejected")
	}
	h.pump(t)
	if got := h.l2meta(11).Val; got != 20 {
		t.Fatalf("merge picked value %d, want logically-newest 20", got)
	}
	if got := h.l2meta(11).Ver; got < 500 {
		t.Fatalf("merged version %d below newest write time", got)
	}
}

func TestAtomicStallsInIAV(t *testing.T) {
	h := newHarness(t, nil)
	h.nextID++
	a := &coherence.Request{ID: h.nextID, Class: stats.OpAtomic, Line: 12, Val: 1}
	h.nextID++
	b := &coherence.Request{ID: h.nextID, Class: stats.OpAtomic, Line: 12, Val: 1}
	if !h.l1s[0].Access(a, h.now) || !h.l1s[1].Access(b, h.now) {
		t.Fatal("atomic rejected")
	}
	h.pump(t)
	got := []uint64{h.done[a.ID].Data, h.done[b.ID].Data}
	if !(got[0] == 0 && got[1] == 1 || got[0] == 1 && got[1] == 0) {
		t.Fatalf("atomics not serialized: %v", got)
	}
	if h.l2meta(12).Val != 2 {
		t.Fatalf("final value %d, want 2", h.l2meta(12).Val)
	}
}

func TestClockViews(t *testing.T) {
	c := NewClock(false) // SC: unified
	c.AdvanceRead(10)
	if c.WriteNow() != 10 || c.ReadNow() != 10 {
		t.Fatal("SC clock views must stay unified")
	}
	c.AdvanceWrite(20)
	if c.ReadNow() != 20 {
		t.Fatal("SC clock views must stay unified")
	}

	w := NewClock(true) // WO: split
	w.AdvanceRead(10)
	w.AdvanceWrite(30)
	if w.ReadNow() != 10 || w.WriteNow() != 30 {
		t.Fatalf("WO views wrong: %d/%d", w.ReadNow(), w.WriteNow())
	}
	w.Merge()
	if w.ReadNow() != 30 || w.WriteNow() != 30 {
		t.Fatal("fence merge broken")
	}
	w.TickLivelock()
	if w.ReadNow() != 31 {
		t.Fatal("livelock tick broken")
	}
	w.Reset()
	if w.ReadNow() != 0 || w.WriteNow() != 0 {
		t.Fatal("reset broken")
	}
}

func TestLivelockTickAdvancesTime(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.RCCLivelockTick = 100
	})
	h.op(t, 0, stats.OpLoad, 1, 0)
	before := h.l1s[0].clk.Now()
	for i := 0; i < 500; i++ {
		h.l1s[0].Tick(h.now)
		h.now++
	}
	if h.l1s[0].clk.Now() <= before {
		t.Fatal("livelock tick did not advance logical time")
	}
}

func TestMSHRFullRejectsAccess(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.L1MSHRs = 2
	})
	ok := 0
	for i := 0; i < 4; i++ {
		h.nextID++
		r := &coherence.Request{ID: h.nextID, Class: stats.OpLoad, Line: uint64(100 + i)}
		if h.l1s[0].Access(r, h.now) {
			ok++
		}
	}
	if ok != 2 {
		t.Fatalf("accepted %d accesses with 2 MSHRs", ok)
	}
	h.pump(t)
}

// TestRCCWOSplitViews exercises the RCC-WO variant end to end at the L1:
// loads consult and advance only the read view, stores only the write
// view, and a fence merges them (Sec. III-F).
func TestRCCWOSplitViews(t *testing.T) {
	h := newHarness(t, func(c *config.Config) {
		c.Protocol = config.RCCWO
		c.RCCPredictor = false
		c.RCCFixedLease = 100
	})
	clk := h.l1s[0].clk
	if !clk.wo {
		t.Fatal("harness did not build a WO clock")
	}
	// A store to a leased block jumps the WRITE view far forward.
	h.op(t, 1, stats.OpLoad, 5, 0) // core 1 leases the block
	h.op(t, 0, stats.OpStore, 5, 1)
	if clk.WriteNow() == 0 {
		t.Fatal("store did not advance the write view")
	}
	if clk.ReadNow() != 0 {
		t.Fatalf("store advanced the read view to %d (views must be split)", clk.ReadNow())
	}
	// Core 0's reads of other blocks are unaffected by its own store...
	h.op(t, 0, stats.OpLoad, 6, 0)
	readBefore := clk.ReadNow()
	if readBefore >= clk.WriteNow() {
		t.Fatal("read view should trail the write view here")
	}
	// ...until a fence merges the views.
	h.l1s[0].FenceComplete(0, h.now)
	if clk.ReadNow() != clk.WriteNow() {
		t.Fatal("fence did not merge the views")
	}
}

// TestRCCWOFenceReadyImmediately: RCC-WO fences never wait on physical
// time (contrast with TCW's GWCT).
func TestRCCWOFenceReadyImmediately(t *testing.T) {
	h := newHarness(t, func(c *config.Config) { c.Protocol = config.RCCWO })
	h.op(t, 1, stats.OpLoad, 5, 0)
	h.op(t, 0, stats.OpStore, 5, 1)
	if got := h.l1s[0].FenceReadyAt(0, h.now); got != h.now {
		t.Fatalf("RCC-WO fence delayed to %d (now %d)", got, h.now)
	}
}
