package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"rccsim/internal/timing"
)

// TestTelescoping pins the core reconciliation guarantee: however
// marks arrive (including out of timestamp order), the segment sum of
// a finished span equals its end-to-end latency exactly.
func TestTelescoping(t *testing.T) {
	r := NewRecorder(1)
	if !r.Start(7, 1, 2, 0x40, Load, 100) {
		t.Fatal("Start rejected with every=1")
	}
	r.Mark(7, SegIssue, 102)
	r.Mark(7, SegL1, 102)          // zero-width segment
	r.Mark(7, SegNoCReqQueue, 110) // future timestamp (NoC pre-marks)
	r.Mark(7, SegNoCReqWire, 130)
	r.Mark(7, SegL2Pipe, 125) // out-of-order: clamps to zero
	r.Mark(7, SegDRAM, 400)
	if !r.Finish(7, SegReply, 450) {
		t.Fatal("Finish lost the span")
	}
	ops := r.Done()
	if len(ops) != 1 {
		t.Fatalf("done=%d", len(ops))
	}
	o := ops[0]
	var sum uint64
	for _, n := range o.Segs {
		sum += n
	}
	if sum != o.Total() || o.Total() != 350 {
		t.Fatalf("segment sum %d != total %d (want 350)", sum, o.Total())
	}
	if o.Segs[SegL2Pipe] != 0 {
		t.Fatalf("out-of-order mark charged %d cycles", o.Segs[SegL2Pipe])
	}
	if o.Segs[SegDRAM] != 270 {
		t.Fatalf("dram=%d want 270", o.Segs[SegDRAM])
	}
}

// TestNilRecorder pins nil-safety of the entire API — the everything-
// off path every simulator component takes by default.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	if r.Start(1, 0, 0, 0, Load, 0) {
		t.Fatal("nil recorder tracked an op")
	}
	r.Mark(1, SegL1, 5)
	if r.Finish(1, SegReply, 9) {
		t.Fatal("nil recorder finished an op")
	}
	r.Abort(1)
	r.Edge(1, 2, "coalesce")
	r.AddChild(1, "lease", 0, 9)
	r.NoteLease(0x40, 1)
	r.EdgeLease(1, 0x40)
	if r.Tracked(1) || r.Every() != 0 || r.Done() != nil || r.LiveCount() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	if NewRecorder(0) != nil {
		t.Fatal("every=0 should disable")
	}
	s := r.Summarize(5)
	if s.Tracked != 0 || s.Critical.Cycles != 0 {
		t.Fatalf("nil summary: %+v", s)
	}
}

// TestSamplingDeterministic: the every-N filter depends only on the
// request ID, admits roughly 1/N of a strided ID population (the SM
// issue pattern), and every=1 admits everything.
func TestSamplingDeterministic(t *testing.T) {
	r := NewRecorder(8)
	hits := 0
	for id := uint64(1); id <= 8000; id++ {
		a := r.sampled(id)
		if a != r.sampled(id) {
			t.Fatalf("id %d not deterministic", id)
		}
		if a {
			hits++
		}
	}
	if hits < 700 || hits > 1300 {
		t.Fatalf("every=8 admitted %d/8000", hits)
	}
	// Strided subsequence (one SM's IDs at NumSMs=16) must not be
	// starved or saturated by the stride interacting with the modulus.
	strided := 0
	for id := uint64(3); id < 3+16*1000; id += 16 {
		if r.sampled(id) {
			strided++
		}
	}
	if strided < 60 || strided > 250 {
		t.Fatalf("strided IDs admitted %d/1000 at every=8", strided)
	}
	one := NewRecorder(1)
	for id := uint64(1); id < 100; id++ {
		if !one.sampled(id) {
			t.Fatalf("every=1 skipped id %d", id)
		}
	}
}

// TestAbortAndUntracked: aborted spans vanish; marks on unknown IDs
// are ignored.
func TestAbortAndUntracked(t *testing.T) {
	r := NewRecorder(1)
	r.Start(5, 0, 0, 0x80, Store, 10)
	r.Abort(5)
	r.Mark(5, SegL1, 20)
	if r.Finish(5, SegReply, 30) {
		t.Fatal("finished an aborted span")
	}
	r.Mark(99, SegL1, 20) // never started
	if len(r.Done()) != 0 || r.LiveCount() != 0 {
		t.Fatal("aborted/unknown spans leaked")
	}
}

// TestUnsampledIDsAreLockFreeNoOps pins the sampling gate of the per-ID
// methods: on a strided recorder, calls for IDs that sampling skips leave
// every snapshot unchanged, and they return without taking the
// recorder's mutex (the test holds it while they run).
func TestUnsampledIDsAreLockFreeNoOps(t *testing.T) {
	r := NewRecorder(16)
	var in, out []uint64
	for id := uint64(1); len(in) < 3 || len(out) < 8; id++ {
		if r.sampled(id) {
			in = append(in, id)
		} else {
			out = append(out, id)
		}
	}
	for i, id := range in {
		r.Start(id, i, 0, 0x40, Load, timing.Cycle(10*i))
		r.NoteLease(0x40, id)
		r.Mark(id, SegL1, timing.Cycle(10*i+3))
	}
	r.Edge(in[1], in[0], "coalesce")
	r.Finish(in[0], SegReply, 50)
	snapshot := func() string {
		b, err := json.Marshal(r.Summarize(10))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	wantSum, wantDone, wantLive := snapshot(), len(r.Done()), r.LiveCount()

	if r.Start(out[0], 0, 0, 0x40, Load, 60) {
		t.Fatalf("Start tracked unsampled id %d", out[0])
	}
	r.mu.Lock()
	finished := make(chan string)
	go func() {
		var got []string
		for _, id := range out {
			r.Mark(id, SegL1, 70)
			r.Edge(id, in[1], "coalesce")
			r.AddChild(id, "lease-grant", 70, 80)
			r.EdgeLease(id, 0x40)
			if r.Tracked(id) {
				got = append(got, "Tracked")
			}
			if r.Finish(id, SegReply, 90) {
				got = append(got, "Finish")
			}
			r.Abort(id)
		}
		finished <- strings.Join(got, ",")
	}()
	select {
	case got := <-finished:
		if got != "" {
			t.Errorf("unsampled ids reported true from: %s", got)
		}
	case <-time.After(10 * time.Second):
		t.Error("a per-ID call on an unsampled id waited for the recorder's mutex")
		r.mu.Unlock()
		<-finished
		r.mu.Lock()
	}
	r.mu.Unlock()

	if got := snapshot(); got != wantSum {
		t.Errorf("Summarize changed:\n got  %s\n want %s", got, wantSum)
	}
	if len(r.Done()) != wantDone || r.LiveCount() != wantLive {
		t.Errorf("done/live = %d/%d, want %d/%d", len(r.Done()), r.LiveCount(), wantDone, wantLive)
	}
}

// TestCriticalPath builds a three-op chain (coalesce + barrier edges)
// and checks the DP: length equals the telescoped chain, never exceeds
// the run extent, never undershoots the longest op, and the extracted
// path is oldest-first.
func TestCriticalPath(t *testing.T) {
	r := NewRecorder(1)
	// op1: 0..100
	r.Start(1, 0, 0, 0x40, Load, 0)
	r.Finish(1, SegL1, 100)
	// op2 joined op1's MSHR: 10..100 (same finish cycle)
	r.Start(2, 0, 1, 0x40, Load, 10)
	r.Edge(2, 1, "coalesce")
	r.Finish(2, SegCoalesce, 100)
	// op3 issued after a barrier released by op2: 150..220
	r.Start(3, 0, 0, 0x80, Store, 150)
	r.Edge(3, 2, "barrier")
	r.Finish(3, SegL1, 220)

	ops := r.Done()
	c := criticalPath(ops)
	// cp(1)=100; cp(2)=max(90, 100+0)=100; cp(3)=max(70, 100+120)=220.
	if c.Cycles != 220 {
		t.Fatalf("critical path %d want 220", c.Cycles)
	}
	maxFinish := uint64(220) // run extent from cycle 0
	if c.Cycles > maxFinish {
		t.Fatalf("path %d exceeds run extent %d", c.Cycles, maxFinish)
	}
	var longest uint64
	for _, o := range ops {
		if o.Total() > longest {
			longest = o.Total()
		}
	}
	if c.Cycles < longest {
		t.Fatalf("path %d under longest op %d", c.Cycles, longest)
	}
	if c.Ops != 3 || c.Path[0].ID != 1 || c.Path[2].ID != 3 {
		t.Fatalf("path wrong: %+v", c.Path)
	}
	if c.Path[2].Why != "barrier" || c.Path[1].Why != "coalesce" {
		t.Fatalf("edge kinds wrong: %+v", c.Path)
	}
}

// TestCriticalPathIgnoresFutureDeps: an edge to a span finishing later
// (possible only through same-cycle races) must not blow up or inflate
// the path.
func TestCriticalPathIgnoresFutureDeps(t *testing.T) {
	r := NewRecorder(1)
	r.Start(1, 0, 0, 0, Load, 0)
	r.Edge(1, 2, "lease-wait") // dep finishes later
	r.Finish(1, SegL1, 50)
	r.Start(2, 0, 0, 0, Load, 0)
	r.Finish(2, SegL1, 80)
	if c := criticalPath(r.Done()); c.Cycles != 80 {
		t.Fatalf("cycles=%d want 80", c.Cycles)
	}
}

// TestSummarizeAndJSON sanity-checks percentiles, seg aggregation,
// slowest ordering and that the JSON payload round-trips.
func TestSummarizeAndJSON(t *testing.T) {
	r := NewRecorder(1)
	for i := uint64(1); i <= 10; i++ {
		r.Start(i, int(i%4), 0, 0x40*i, Load, 0)
		r.Mark(i, SegL1, 2)
		r.Finish(i, SegReply, timing.Cycle(2+10*i)) // totals 12..102
	}
	s := r.Summarize(3)
	if s.Tracked != 10 || s.Total.Max != 102 || len(s.Slowest) != 3 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Slowest[0].Total != 102 || s.Slowest[1].Total != 92 {
		t.Fatalf("slowest not sorted: %+v", s.Slowest)
	}
	if s.SegSum["l1"] != 20 {
		t.Fatalf("l1 seg sum %d want 20", s.SegSum["l1"])
	}
	for _, o := range s.Slowest {
		var sum uint64
		for _, n := range o.Segs {
			sum += n
		}
		if sum != o.Total {
			t.Fatalf("op %d segs %d != total %d", o.ID, sum, o.Total)
		}
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf, 3); err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("JSON round-trip: %v", err)
	}
	if back.Tracked != 10 {
		t.Fatalf("round-trip tracked=%d", back.Tracked)
	}
}

// TestFoldedStacks pins the collapsed-stack format and its stable
// ordering.
func TestFoldedStacks(t *testing.T) {
	r := NewRecorder(1)
	r.Start(1, 0, 0, 0x40, Load, 0)
	r.Mark(1, SegL1, 5)
	r.Finish(1, SegDRAM, 25)
	r.Start(2, 0, 0, 0x80, Store, 0)
	r.Finish(2, SegL1, 7)
	var buf bytes.Buffer
	if err := r.WriteFolded(&buf, "rcc"); err != nil {
		t.Fatal(err)
	}
	want := "rcc;load;dram 20\nrcc;load;l1 5\nrcc;store;l1 7\n"
	if buf.String() != want {
		t.Fatalf("folded:\n%q\nwant\n%q", buf.String(), want)
	}
}

// TestFlows: each finished span yields an anchor chain starting at
// issue, in mark order.
func TestFlows(t *testing.T) {
	r := NewRecorder(1)
	r.Start(1, 0, 0, 0x40, Atomic, 3)
	r.Mark(1, SegNoCReqWire, 9)
	r.Finish(1, SegReply, 20)
	fl := r.Flows()
	if len(fl) != 1 || len(fl[0].Steps) != 3 {
		t.Fatalf("flows: %+v", fl)
	}
	if fl[0].Steps[0].At != 3 || fl[0].Steps[1].Seg != "noc_req_wire" || fl[0].Steps[2].At != 20 {
		t.Fatalf("steps wrong: %+v", fl[0].Steps)
	}
	if !strings.Contains(fl[0].Name, "atomic") {
		t.Fatalf("flow name %q", fl[0].Name)
	}
}

// TestLeaseEdges: NoteLease + EdgeLease wire the store→reader
// dependency used by the TC protocols.
func TestLeaseEdges(t *testing.T) {
	r := NewRecorder(1)
	r.Start(1, 0, 0, 0x40, Load, 0)
	r.NoteLease(0x40, 1)
	r.Finish(1, SegL1, 10)
	r.Start(2, 1, 0, 0x40, Store, 5)
	r.EdgeLease(2, 0x40)
	r.Finish(2, SegProto, 40)
	ops := r.Done()
	if len(ops[1].Deps) != 1 || ops[1].Deps[0] != (Dep{On: 1, Why: "lease-wait"}) {
		t.Fatalf("deps: %+v", ops[1].Deps)
	}
}
