package gpu

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// fakeL1 completes every access after a fixed delay, recording order.
type fakeL1 struct {
	sink     coherence.Sink
	delay    timing.Cycle
	pending  timing.Queue[*coherence.Request]
	rejectN  int // reject the first N accesses (MSHR-full emulation)
	calls    int // Access calls, refused ones included
	accesses []uint64
	fenceAt  timing.Cycle // FenceReadyAt result
	fences   int
}

func (f *fakeL1) Access(r *coherence.Request, now timing.Cycle) bool {
	f.calls++
	if f.rejectN > 0 {
		f.rejectN--
		return false
	}
	f.accesses = append(f.accesses, r.Line)
	f.pending.Push(now+f.delay, r)
	return true
}
func (f *fakeL1) Deliver(m *coherence.Msg, at timing.Cycle) {}
func (f *fakeL1) SetSink(s coherence.Sink)                  { f.sink = s }
func (f *fakeL1) Tick(now timing.Cycle) bool {
	did := false
	for {
		r, ok := f.pending.PopReady(now)
		if !ok {
			return did
		}
		r.Data = r.Line + 1000
		f.sink.MemDone(r, now)
		did = true
	}
}
func (f *fakeL1) NextEvent(now timing.Cycle) timing.Cycle { return f.pending.NextReady() }
func (f *fakeL1) FenceReadyAt(warp int, now timing.Cycle) timing.Cycle {
	return timing.Max(now, f.fenceAt)
}
func (f *fakeL1) FenceComplete(warp int, now timing.Cycle) { f.fences++ }
func (f *fakeL1) Drained() bool                            { return f.pending.Len() == 0 }

type obsRec struct {
	loads []uint64
}

func (o *obsRec) LoadObserved(sm, warp, pc int, line, val uint64) {
	o.loads = append(o.loads, val)
}

func smConfig(p config.Protocol) config.Config {
	cfg := config.Small()
	cfg.Protocol = p
	cfg.NumSMs = 1
	cfg.WarpsPerSM = 2
	return cfg
}

// run pumps the SM+fakeL1 pair until done.
func run(t *testing.T, sm *SM, l1 *fakeL1, limit int) timing.Cycle {
	t.Helper()
	return runFrom(t, sm, l1, 0, limit)
}

// runFrom is run for a pair already driven up to cycle now.
func runFrom(t *testing.T, sm *SM, l1 *fakeL1, now timing.Cycle, limit int) timing.Cycle {
	t.Helper()
	for i := 0; i < limit; i++ {
		if sm.Done() {
			return now
		}
		// The machine's L1 wakes the SM whenever an MSHR retry might
		// succeed; fakeL1 has no MSHR model, so wake unconditionally.
		sm.Wake()
		sm.Tick(now)
		l1.Tick(now)
		now++
	}
	t.Fatal("SM did not finish")
	return 0
}

func build(t *testing.T, cfg config.Config, traces []workload.Trace, obs Observer) (*SM, *fakeL1) {
	t.Helper()
	l1 := &fakeL1{delay: 50}
	st := stats.New()
	sm := NewSM(cfg, 0, l1, st, traces, obs)
	l1.SetSink(sm)
	return sm, l1
}

func TestSCOneOutstandingPerWarp(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}, Val: 9},
		{Op: workload.OpLoad, Lines: []uint64{2}},
		{Op: workload.OpLoad, Lines: []uint64{3}},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	st := sm.st

	now := timing.Cycle(0)
	sm.Tick(now) // issues the store
	if got := len(l1.accesses); got != 1 {
		t.Fatalf("accesses after first tick = %d", got)
	}
	// The load must NOT issue while the store is outstanding.
	for now = 1; now < 40; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if len(l1.accesses) != 1 {
		t.Fatal("SC violated: second op issued while first outstanding")
	}
	for ; now < 400 && !sm.Done(); now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if !sm.Done() {
		t.Fatal("SM stuck")
	}
	if st.SCStallCycles[stats.OpStore] == 0 {
		t.Fatal("no stall cycles blamed on the store")
	}
	if st.MemOpsStalled == 0 {
		t.Fatal("stalled op not counted for Fig 1a")
	}
	if st.MemOps != 3 {
		t.Fatalf("MemOps = %d, want 3", st.MemOps)
	}
}

func TestWOManyOutstanding(t *testing.T) {
	var tr workload.Trace
	for i := 0; i < 4; i++ {
		tr = append(tr, workload.Instr{Op: workload.OpLoad, Lines: []uint64{uint64(i)}})
	}
	sm, l1 := build(t, smConfig(config.TCW), []workload.Trace{tr, nil}, nil)
	for now := timing.Cycle(0); now < 10; now++ {
		sm.Tick(now)
	}
	if len(l1.accesses) != 4 {
		t.Fatalf("WO should pipeline loads: issued %d", len(l1.accesses))
	}
	if sm.st.SCStallEvents != 0 {
		t.Fatal("WO must not record SC stalls")
	}
	run(t, sm, l1, 1000)
}

func TestLocalStallsBehindGlobalUnderSC(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpLoad, Lines: []uint64{1}},
		{Op: workload.OpLocal, Lat: 10},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	end := run(t, sm, l1, 1000)
	if end < 50 {
		t.Fatalf("local op did not wait for global: done at %d", end)
	}
	if sm.st.SCStallCycles[stats.OpLoad] == 0 {
		t.Fatal("local-behind-load stall not recorded")
	}
}

func TestFenceNoOpUnderSC(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}},
		{Op: workload.OpFence},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	run(t, sm, l1, 1000)
	if l1.fences != 0 {
		t.Fatal("SC fence must not reach the L1")
	}
	if sm.st.Fences != 1 {
		t.Fatalf("fences = %d", sm.st.Fences)
	}
}

func TestFenceWaitsUnderWO(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}},
		{Op: workload.OpFence},
		{Op: workload.OpLoad, Lines: []uint64{2}},
	}
	sm, l1 := build(t, smConfig(config.TCW), []workload.Trace{tr, nil}, nil)
	l1.fenceAt = 200 // GWCT far in the future
	end := run(t, sm, l1, 2000)
	if end < 200 {
		t.Fatalf("fence did not wait for GWCT: done at %d", end)
	}
	if l1.fences != 1 {
		t.Fatal("fence completion not signalled to the L1")
	}
	if sm.st.FenceStallCycles == 0 {
		t.Fatal("fence stall cycles not recorded")
	}
}

func TestBarrierSynchronizesWarps(t *testing.T) {
	// Warp 0 is fast; warp 1 has a long compute before the barrier. Warp
	// 0's post-barrier load must wait for warp 1.
	fast := workload.Trace{
		{Op: workload.OpBarrier},
		{Op: workload.OpLoad, Lines: []uint64{7}},
	}
	slow := workload.Trace{
		{Op: workload.OpCompute, Lat: 300},
		{Op: workload.OpBarrier},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{fast, slow}, nil)
	run(t, sm, l1, 3000)
	if len(l1.accesses) != 1 {
		t.Fatalf("accesses = %d", len(l1.accesses))
	}
	// The load can only have been accepted after warp 1 reached the
	// barrier at cycle >= 300.
	if sm.st.Latency[stats.OpLoad].Count != 1 {
		t.Fatal("load latency not recorded")
	}
}

func TestDivergentAccessCountsOnce(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpLoad, Lines: []uint64{1, 2, 3, 4}},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	run(t, sm, l1, 1000)
	if sm.st.MemOps != 1 {
		t.Fatalf("divergent load counted %d times", sm.st.MemOps)
	}
	if len(l1.accesses) != 4 {
		t.Fatalf("expected 4 line accesses, got %d", len(l1.accesses))
	}
	if sm.st.Latency[stats.OpLoad].Count != 1 {
		t.Fatal("latency recorded per line, want per instruction")
	}
}

func TestMSHRFullRetries(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpLoad, Lines: []uint64{1, 2}},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	l1.rejectN = 3
	run(t, sm, l1, 1000)
	if len(l1.accesses) != 2 {
		t.Fatalf("accesses = %d after retries", len(l1.accesses))
	}
}

func TestObserverSeesLoadValues(t *testing.T) {
	obs := &obsRec{}
	tr := workload.Trace{
		{Op: workload.OpLoad, Lines: []uint64{5}},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, obs)
	run(t, sm, l1, 1000)
	if len(obs.loads) != 1 || obs.loads[0] != 1005 {
		t.Fatalf("observer got %v", obs.loads)
	}
}

func TestLatencyAttribution(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}},
		{Op: workload.OpLoad, Lines: []uint64{2}},
		{Op: workload.OpAtomic, Lines: []uint64{3}, Val: 1},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	run(t, sm, l1, 2000)
	for _, c := range []stats.OpClass{stats.OpLoad, stats.OpStore, stats.OpAtomic} {
		acc := sm.st.Latency[c]
		if acc.Count != 1 {
			t.Fatalf("%v latency count = %d", c, acc.Count)
		}
		if acc.Mean() < 45 || acc.Mean() > 60 {
			t.Fatalf("%v latency = %v, want ~50", c, acc.Mean())
		}
	}
}

func TestInstructionCount(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpCompute, Lat: 5},
		{Op: workload.OpLocal, Lat: 5},
		{Op: workload.OpLoad, Lines: []uint64{1}},
		{Op: workload.OpFence},
		{Op: workload.OpBarrier},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, tr}, nil)
	run(t, sm, l1, 2000)
	if sm.st.Instructions != 10 {
		t.Fatalf("instructions = %d, want 10", sm.st.Instructions)
	}
}

func TestEmptyTraceDoneImmediately(t *testing.T) {
	sm, _ := build(t, smConfig(config.RCC), []workload.Trace{nil, nil}, nil)
	if !sm.Done() {
		t.Fatal("empty program should be done")
	}
}

func TestNextEventComputeWake(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpCompute, Lat: 100},
		{Op: workload.OpCompute, Lat: 1},
	}
	sm, _ := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	sm.Tick(0) // issue compute; busy until 100
	if sm.Tick(1) {
		t.Fatal("issued while busy")
	}
	if got := sm.NextEvent(1); got != 100 {
		t.Fatalf("NextEvent = %d, want 100", got)
	}
}

func TestGTOSchedulerGreedy(t *testing.T) {
	cfg := smConfig(config.RCC)
	cfg.Scheduler = config.GTO
	// Two warps with pure compute: GTO should drain warp 0 before warp 1
	// issues anything (greedy), whereas LRR alternates.
	mk := func() []workload.Trace {
		tr := workload.Trace{
			{Op: workload.OpCompute, Lat: 1},
			{Op: workload.OpCompute, Lat: 1},
			{Op: workload.OpLoad, Lines: []uint64{1}},
		}
		return []workload.Trace{tr, tr}
	}
	sm, l1 := build(t, cfg, mk(), nil)
	// With 1-cycle computes and greedy policy, warp 0 reaches its load
	// (the first Access) before warp 1 issues its first load.
	now := timing.Cycle(0)
	for ; len(l1.accesses) == 0 && now < 100; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if len(l1.accesses) == 0 {
		t.Fatal("no access issued")
	}
	// Warp 1's load must come strictly later under GTO.
	run(t, sm, l1, 2000)
	if len(l1.accesses) != 2 {
		t.Fatalf("accesses = %d", len(l1.accesses))
	}
}

func TestGTOCompletesEverything(t *testing.T) {
	cfg := smConfig(config.RCC)
	cfg.Scheduler = config.GTO
	var traces []workload.Trace
	for w := 0; w < 4; w++ {
		traces = append(traces, workload.Trace{
			{Op: workload.OpLoad, Lines: []uint64{uint64(w)}},
			{Op: workload.OpBarrier},
			{Op: workload.OpStore, Lines: []uint64{uint64(w + 10)}},
		})
	}
	cfg.WarpsPerSM = 4
	sm, l1 := build(t, cfg, traces, nil)
	run(t, sm, l1, 5000)
	if sm.st.MemOps != 8 {
		t.Fatalf("MemOps = %d, want 8", sm.st.MemOps)
	}
}

// computeTrace is n one-cycle compute ops: a sibling that keeps the SM
// scanning every cycle.
func computeTrace(n int) workload.Trace {
	tr := make(workload.Trace, n)
	for i := range tr {
		tr[i] = workload.Instr{Op: workload.OpCompute, Lat: 1}
	}
	return tr
}

// TestRefusedSubmitParksUntilWake: a refused submit cannot succeed before
// the L1 ticks, so the scan skips it until Wake (the L1 ticked with work)
// or ForceWake (a rollover thaw, which comes with no L1 tick) instead of
// rebuilding and rolling back a request every cycle. Warp 1's computes
// keep the SM scanning throughout, with no L1 tick in between.
func TestRefusedSubmitParksUntilWake(t *testing.T) {
	for name, wake := range map[string]func(*SM){"Wake": (*SM).Wake, "ForceWake": (*SM).ForceWake} {
		t.Run(name, func(t *testing.T) {
			load := workload.Trace{{Op: workload.OpLoad, Lines: []uint64{1}}}
			sm, l1 := build(t, smConfig(config.TCW), []workload.Trace{load, computeTrace(200)}, nil)
			l1.rejectN = 1 << 30
			now := timing.Cycle(0)
			for ; now < 100; now++ {
				sm.Tick(now)
			}
			if l1.calls != 1 {
				t.Fatalf("refused submit retried %d times before any L1 tick, want 0", l1.calls-1)
			}
			if bitSet(sm.cand, 0) {
				t.Fatal("refused warp still in the issue scan")
			}
			if sm.st.Instructions != 100 {
				t.Fatalf("instructions = %d, want the load plus a compute every later cycle", sm.st.Instructions)
			}
			l1.rejectN = 0
			wake(sm)
			sm.Tick(now)
			if l1.calls != 2 || len(l1.accesses) != 1 {
				t.Fatalf("after %s: %d calls, %d accepted; want the retry accepted", name, l1.calls, len(l1.accesses))
			}
			l1.Tick(now)
			runFrom(t, sm, l1, now+1, 1000)
		})
	}
}

// TestFenceStallParksUntilMemDone: a WO warp at a fence with its store in
// flight leaves the scan after its first failed attempt and rejoins when
// the store completes, while a sibling issues computes throughout. Parking
// must not move the stall interval: it opens at the first failed attempt
// (cycle 2, after the store at 0 and a sibling compute at 1) and closes
// when the fence issues at 51, the cycle after the store completes, so
// FenceStallCycles stays 49 as before parking existed.
func TestFenceStallParksUntilMemDone(t *testing.T) {
	fenced := workload.Trace{
		{Op: workload.OpStore, Lines: []uint64{1}},
		{Op: workload.OpFence},
		{Op: workload.OpLoad, Lines: []uint64{2}},
	}
	sm, l1 := build(t, smConfig(config.TCW), []workload.Trace{fenced, computeTrace(100)}, nil)
	w := sm.warps[0]
	now := timing.Cycle(0)
	for ; now < 10; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if !w.fenceStalled || w.outstanding != 1 {
		t.Fatalf("warp 0: fenceStalled=%v outstanding=%d, want stalled behind the store", w.fenceStalled, w.outstanding)
	}
	if bitSet(sm.cand, 0) {
		t.Fatal("fence-stalled warp with accesses in flight still in the issue scan")
	}
	for ; w.outstanding > 0; now++ {
		sm.Tick(now)
		l1.Tick(now)
		if now > 500 {
			t.Fatal("store never completed")
		}
	}
	if !bitSet(sm.cand, 0) {
		t.Fatal("warp 0 not back in the issue scan after its last MemDone")
	}
	runFrom(t, sm, l1, now, 1000)
	if l1.fences != 1 {
		t.Fatalf("fences completed = %d, want 1", l1.fences)
	}
	if got := sm.st.FenceStallCycles; got != 49 {
		t.Fatalf("FenceStallCycles = %d, want 49", got)
	}
}

// TestBarrierEdgeSurvivesRefusedSubmit: the first tracked op after a
// barrier release carries a "barrier" dependency even when the L1 refuses
// its first submit attempt and the retry reuses the request ID.
func TestBarrierEdgeSurvivesRefusedSubmit(t *testing.T) {
	tr := workload.Trace{
		{Op: workload.OpLoad, Lines: []uint64{1}},
		{Op: workload.OpBarrier},
		{Op: workload.OpLoad, Lines: []uint64{2}},
	}
	sm, l1 := build(t, smConfig(config.RCC), []workload.Trace{tr, nil}, nil)
	sp := span.NewRecorder(1)
	sm.SetObservers(trace.Observers{Sp: sp})
	now := timing.Cycle(0)
	for ; len(l1.accesses) == 0; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	l1.rejectN = 1 // the post-barrier load's first attempt
	for ; !sm.Done(); now++ {
		if now > 1000 {
			t.Fatal("SM did not finish")
		}
		sm.Wake()
		sm.Tick(now)
		l1.Tick(now)
	}
	if l1.calls != 3 {
		t.Fatalf("Access calls = %d, want 3 (load, refused load, retry)", l1.calls)
	}
	var first, second *span.Op
	for _, op := range sp.Done() {
		switch op.Line {
		case 1:
			first = op
		case 2:
			second = op
		}
	}
	if first == nil || second == nil {
		t.Fatalf("spans missing: %v %v", first, second)
	}
	for _, d := range second.Deps {
		if d.Why == "barrier" && d.On == first.ID {
			return
		}
	}
	t.Fatalf("post-barrier load deps = %+v, want a barrier edge on op %d", second.Deps, first.ID)
}
