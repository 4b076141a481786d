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

// fakeL1 completes every access after a fixed delay, recording order. It
// models an MSHR table of mshrs lines (0 means unbounded): an accepted access
// makes its line outstanding until the access completes, and the table is
// Closed while every slot holds a line. Like a real L1, it refuses only
// while Closed, and only a line that is not outstanding (which the access
// could merge into). frozen closes it to every access, as an RCC rollover
// does.
type fakeL1 struct {
	sink     coherence.Sink
	delay    timing.Cycle
	pending  timing.Queue[*coherence.Request]
	mshrs    int
	out      map[uint64]int // outstanding accesses per line
	frozen   bool
	calls    int // Access calls, refused ones included
	accesses []uint64
	fenceAt  timing.Cycle // FenceReadyAt result
	fences   int
}

func (f *fakeL1) Closed() bool { return f.frozen || (f.mshrs > 0 && len(f.out) >= f.mshrs) }

func (f *fakeL1) Access(r *coherence.Request, now timing.Cycle) bool {
	f.calls++
	if f.frozen || (f.Closed() && f.out[r.Line] == 0) {
		return false
	}
	if f.out == nil {
		f.out = map[uint64]int{}
	}
	f.out[r.Line]++
	f.accesses = append(f.accesses, r.Line)
	f.pending.Push(now+f.delay, r)
	return true
}
func (f *fakeL1) Deliver(m *coherence.Msg, at timing.Cycle) {}
func (f *fakeL1) SetSink(s coherence.Sink)                  { f.sink = s }

// Tick completes every access due at now, freeing the lines no access
// holds any longer, and wakes the SM when it did work, as ctl.L1.Drain
// does.
func (f *fakeL1) Tick(now timing.Cycle) bool {
	did := false
	for {
		r, ok := f.pending.PopReady(now)
		if !ok {
			break
		}
		if f.out[r.Line]--; f.out[r.Line] == 0 {
			delete(f.out, r.Line)
		}
		r.Data = r.Line + 1000
		f.sink.MemDone(r, now)
		did = true
	}
	if did {
		f.sink.(coherence.Waker).Wake()
	}
	return did
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
		sm.Tick(now)
		l1.Tick(now)
		now++
	}
	t.Fatal("SM did not finish")
	return 0
}

// build runs traces as SM 0 of p, the program their accesses were built
// in.
func build(t *testing.T, cfg config.Config, p *workload.Program, traces []workload.Trace, obs Observer) (*SM, *fakeL1) {
	t.Helper()
	p.SMs = [][]workload.Trace{traces}
	l1 := &fakeL1{delay: 50}
	st := stats.New()
	sm := NewSM(cfg, 0, l1, st, p, obs)
	l1.SetSink(sm)
	return sm, l1
}

func TestSCOneOutstandingPerWarp(t *testing.T) {
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpStore, 9, 1),
		p.Access(workload.OpLoad, 0, 2),
		p.Access(workload.OpLoad, 0, 3),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
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
	p := &workload.Program{}
	var tr workload.Trace
	for i := 0; i < 4; i++ {
		tr = append(tr, p.Access(workload.OpLoad, 0, uint64(i)))
	}
	sm, l1 := build(t, smConfig(config.TCW), p, []workload.Trace{tr, nil}, nil)
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
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpLoad, 0, 1),
		{Op: workload.OpLocal, Lat: 10},
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
	end := run(t, sm, l1, 1000)
	if end < 50 {
		t.Fatalf("local op did not wait for global: done at %d", end)
	}
	if sm.st.SCStallCycles[stats.OpLoad] == 0 {
		t.Fatal("local-behind-load stall not recorded")
	}
}

func TestFenceNoOpUnderSC(t *testing.T) {
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpStore, 0, 1),
		{Op: workload.OpFence},
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
	run(t, sm, l1, 1000)
	if l1.fences != 0 {
		t.Fatal("SC fence must not reach the L1")
	}
	if sm.st.Fences != 1 {
		t.Fatalf("fences = %d", sm.st.Fences)
	}
}

func TestFenceWaitsUnderWO(t *testing.T) {
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpStore, 0, 1),
		{Op: workload.OpFence},
		p.Access(workload.OpLoad, 0, 2),
	}
	sm, l1 := build(t, smConfig(config.TCW), p, []workload.Trace{tr, nil}, nil)
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
	p := &workload.Program{}
	// Warp 0 is fast; warp 1 has a long compute before the barrier. Warp
	// 0's post-barrier load must wait for warp 1.
	fast := workload.Trace{
		{Op: workload.OpBarrier},
		p.Access(workload.OpLoad, 0, 7),
	}
	slow := workload.Trace{
		{Op: workload.OpCompute, Lat: 300},
		{Op: workload.OpBarrier},
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{fast, slow}, nil)
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
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpLoad, 0, 1, 2, 3, 4),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
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
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpLoad, 0, 1, 2),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
	l1.mshrs = 1 // line 2 is refused until line 1 completes
	run(t, sm, l1, 1000)
	if len(l1.accesses) != 2 {
		t.Fatalf("accesses = %d after retries", len(l1.accesses))
	}
	if l1.calls != 3 {
		t.Fatalf("Access calls = %d, want 3 (line 1, refused line 2, retry)", l1.calls)
	}
}

func TestObserverSeesLoadValues(t *testing.T) {
	p := &workload.Program{}
	obs := &obsRec{}
	tr := workload.Trace{
		p.Access(workload.OpLoad, 0, 5),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, obs)
	run(t, sm, l1, 1000)
	if len(obs.loads) != 1 || obs.loads[0] != 1005 {
		t.Fatalf("observer got %v", obs.loads)
	}
}

func TestLatencyAttribution(t *testing.T) {
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpStore, 0, 1),
		p.Access(workload.OpLoad, 0, 2),
		p.Access(workload.OpAtomic, 1, 3),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
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
	p := &workload.Program{}
	tr := workload.Trace{
		{Op: workload.OpCompute, Lat: 5},
		{Op: workload.OpLocal, Lat: 5},
		p.Access(workload.OpLoad, 0, 1),
		{Op: workload.OpFence},
		{Op: workload.OpBarrier},
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, tr}, nil)
	run(t, sm, l1, 2000)
	if sm.st.Instructions != 10 {
		t.Fatalf("instructions = %d, want 10", sm.st.Instructions)
	}
}

func TestEmptyTraceDoneImmediately(t *testing.T) {
	p := &workload.Program{}
	sm, _ := build(t, smConfig(config.RCC), p, []workload.Trace{nil, nil}, nil)
	if !sm.Done() {
		t.Fatal("empty program should be done")
	}
}

func TestNextEventComputeWake(t *testing.T) {
	p := &workload.Program{}
	tr := workload.Trace{
		{Op: workload.OpCompute, Lat: 100},
		{Op: workload.OpCompute, Lat: 1},
	}
	sm, _ := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
	sm.Tick(0) // issue compute; busy until 100
	if sm.Tick(1) {
		t.Fatal("issued while busy")
	}
	if got := sm.NextEvent(1); got != 100 {
		t.Fatalf("NextEvent = %d, want 100", got)
	}
}

func TestGTOSchedulerGreedy(t *testing.T) {
	p := &workload.Program{}
	cfg := smConfig(config.RCC)
	cfg.Scheduler = config.GTO
	// Two warps with pure compute: GTO should drain warp 0 before warp 1
	// issues anything (greedy), whereas LRR alternates.
	mk := func() []workload.Trace {
		tr := workload.Trace{
			{Op: workload.OpCompute, Lat: 1},
			{Op: workload.OpCompute, Lat: 1},
			p.Access(workload.OpLoad, 0, 1),
		}
		return []workload.Trace{tr, tr}
	}
	sm, l1 := build(t, cfg, p, mk(), nil)
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
	p := &workload.Program{}
	cfg := smConfig(config.RCC)
	cfg.Scheduler = config.GTO
	var traces []workload.Trace
	for w := 0; w < 4; w++ {
		traces = append(traces, workload.Trace{
			p.Access(workload.OpLoad, 0, uint64(w)),
			{Op: workload.OpBarrier},
			p.Access(workload.OpStore, 0, uint64(w+10)),
		})
	}
	cfg.WarpsPerSM = 4
	sm, l1 := build(t, cfg, p, traces, nil)
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

// TestRefusedSubmitParksUntilWake: a refused submit cannot succeed while
// the L1 stays Closed, so the scan skips it until the L1 can take its line
// (after Wake: the L1 ticked with work) or ForceWake (a rollover thaw)
// instead of rebuilding and rolling back a request every cycle. Warp 1's
// computes keep the SM scanning throughout, with no L1 tick in between;
// line 99 holds the L1's only MSHR.
func TestRefusedSubmitParksUntilWake(t *testing.T) {
	p := &workload.Program{}
	for name, wake := range map[string]func(*SM){"Wake": (*SM).Wake, "ForceWake": (*SM).ForceWake} {
		t.Run(name, func(t *testing.T) {
			load := workload.Trace{p.Access(workload.OpLoad, 0, 1)}
			sm, l1 := build(t, smConfig(config.TCW), p, []workload.Trace{load, computeTrace(200)}, nil)
			l1.mshrs = 1
			l1.out = map[uint64]int{99: 1}
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
			delete(l1.out, 99)
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

// parkedLoads builds a TCW SM with one MSHR whose warps each load one line
// of lines: warp 0's load takes the MSHR at cycle 0, and every later warp
// is refused and parked by the cycle after its turn. It returns the pair
// driven through cycle len(lines)-1.
func parkedLoads(t *testing.T, lines ...uint64) (*SM, *fakeL1) {
	t.Helper()
	cfg := smConfig(config.TCW)
	cfg.WarpsPerSM = len(lines)
	p := &workload.Program{}
	traces := make([]workload.Trace, len(lines))
	for i, l := range lines {
		traces[i] = workload.Trace{p.Access(workload.OpLoad, 0, l)}
	}
	sm, l1 := build(t, cfg, p, traces, nil)
	l1.mshrs = 1
	for now := timing.Cycle(0); now < timing.Cycle(len(lines)); now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if l1.calls != len(lines) || len(l1.accesses) != 1 {
		t.Fatalf("setup: %d calls, %d accepted; want %d calls, only warp 0 accepted", l1.calls, len(l1.accesses), len(lines))
	}
	return sm, l1
}

// TestFreedSlotTriesOneParkedWarp: when one MSHR frees with seven warps
// parked on distinct lines, the first parked warp in scheduler order takes
// it, and the other six are not retried while the table is full again.
func TestFreedSlotTriesOneParkedWarp(t *testing.T) {
	sm, l1 := parkedLoads(t, 0, 1, 2, 3, 4, 5, 6, 7)
	// Warp 0's load completes at cycle 50 and frees the slot.
	now := timing.Cycle(8)
	for ; now <= 99; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	if got := l1.calls - 8; got != 1 {
		t.Fatalf("Access calls after one slot freed = %d, want 1", got)
	}
	if len(l1.accesses) != 2 || l1.accesses[1] != 1 {
		t.Fatalf("accepted lines = %v, want warp 1's line 1 to take the slot", l1.accesses)
	}
	runFrom(t, sm, l1, now, 1000)
	if len(l1.accesses) != 8 {
		t.Fatalf("accesses = %d, want 8", len(l1.accesses))
	}
}

// TestParkedWarpMergesIntoSiblingMSHR: warps 1 and 2 are parked on line 7.
// When the slot frees, warp 1's accepted access gives line 7 an MSHR and
// fills the table again; warp 2 must rejoin the scan and merge into that
// MSHR at once, not wait for the table to drain.
func TestParkedWarpMergesIntoSiblingMSHR(t *testing.T) {
	sm, l1 := parkedLoads(t, 3, 7, 7)
	now := timing.Cycle(3)
	for ; len(l1.accesses) < 2; now++ {
		if now > 200 {
			t.Fatal("the freed slot was never taken")
		}
		sm.Tick(now)
		l1.Tick(now)
	}
	if !bitSet(sm.cand, 2) {
		t.Fatal("warp 2 still parked after warp 1's access gave its line an MSHR")
	}
	sm.Tick(now)
	if len(l1.accesses) != 3 || l1.accesses[2] != 7 {
		t.Fatalf("accepted lines = %v, want warp 2 to merge into line 7 on the next scan", l1.accesses)
	}
	if !l1.Closed() || l1.out[7] != 2 {
		t.Fatalf("closed=%v out=%v, want the merge to share line 7's one MSHR", l1.Closed(), l1.out)
	}
	l1.Tick(now)
	runFrom(t, sm, l1, now+1, 1000)
}

// TestFrozenParkRetriedAtForceWake: a warp refused while the L1 was frozen
// for a rollover may have an MSHR for its line (here warp 0's), so the
// thaw's ForceWake must return it to the scan even though the table is
// still full afterwards; Wake alone would leave it parked until the table
// drains.
func TestFrozenParkRetriedAtForceWake(t *testing.T) {
	p := &workload.Program{}
	cfg := smConfig(config.TCW)
	load := workload.Trace{p.Access(workload.OpLoad, 0, 5)}
	sm, l1 := build(t, cfg, p, []workload.Trace{load, load}, nil)
	l1.mshrs = 1
	sm.Tick(0) // warp 0 takes the only MSHR for line 5
	l1.frozen = true
	sm.Tick(1) // warp 1 is refused: frozen
	if l1.calls != 2 || len(l1.accesses) != 1 || !bitSet(sm.subWait, 1) {
		t.Fatalf("setup: %d calls, %d accepted, parked=%v", l1.calls, len(l1.accesses), bitSet(sm.subWait, 1))
	}
	l1.frozen = false
	sm.Wake()
	sm.Tick(2)
	if l1.calls != 2 {
		t.Fatal("parked warp retried after a Wake while the table is full")
	}
	sm.ForceWake()
	sm.Tick(3)
	if l1.calls != 3 || len(l1.accesses) != 2 || !l1.Closed() {
		t.Fatalf("after ForceWake: %d calls, %d accepted, closed=%v; want warp 1 merged into line 5", l1.calls, len(l1.accesses), l1.Closed())
	}
	runFrom(t, sm, l1, 4, 1000)
}

// TestFenceStallParksUntilMemDone: a WO warp at a fence with its store in
// flight leaves the scan after its first failed attempt and rejoins when
// the store completes, while a sibling issues computes throughout. Parking
// must not move the stall interval: it opens at the first failed attempt
// (cycle 2, after the store at 0 and a sibling compute at 1) and closes
// when the fence issues at 51, the cycle after the store completes, so
// FenceStallCycles stays 49 as before parking existed.
func TestFenceStallParksUntilMemDone(t *testing.T) {
	p := &workload.Program{}
	fenced := workload.Trace{
		p.Access(workload.OpStore, 0, 1),
		{Op: workload.OpFence},
		p.Access(workload.OpLoad, 0, 2),
	}
	sm, l1 := build(t, smConfig(config.TCW), p, []workload.Trace{fenced, computeTrace(100)}, nil)
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
	p := &workload.Program{}
	tr := workload.Trace{
		p.Access(workload.OpLoad, 0, 1),
		{Op: workload.OpBarrier},
		p.Access(workload.OpLoad, 0, 2),
	}
	sm, l1 := build(t, smConfig(config.RCC), p, []workload.Trace{tr, nil}, nil)
	sp := span.NewRecorder(1)
	sm.SetObservers(trace.Observers{Sp: sp})
	now := timing.Cycle(0)
	for ; len(l1.accesses) == 0; now++ {
		sm.Tick(now)
		l1.Tick(now)
	}
	// Line 99 holds the only MSHR until the post-barrier load's first
	// attempt has been refused.
	l1.mshrs = 1
	l1.out[99] = 1
	for ; !sm.Done(); now++ {
		if now > 1000 {
			t.Fatal("SM did not finish")
		}
		if l1.calls == 2 && l1.out[99] > 0 {
			delete(l1.out, 99)
			sm.Wake()
		}
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
