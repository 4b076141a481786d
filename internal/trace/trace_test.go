package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// TestKindStrings is the exhaustiveness check: every Kind must have a
// stable wire name (they appear in golden JSONL files).
func TestKindStrings(t *testing.T) {
	if len(Kinds()) != int(numKinds) {
		t.Fatalf("Kinds returned %d kinds, want %d", len(Kinds()), numKinds)
	}
	seen := map[string]bool{}
	for _, k := range Kinds() {
		s := k.String()
		if strings.HasPrefix(s, "Kind(") {
			t.Fatalf("Kind %d has no name", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind string %q", s)
		}
		seen[s] = true
	}
}

// TestNilBus pins the disabled fast path: every method must be callable
// on a nil *Bus without panicking or observing anything.
func TestNilBus(t *testing.T) {
	var b *Bus
	if b.Enabled() {
		t.Fatal("nil bus reports enabled")
	}
	m := &coherence.Msg{Type: coherence.GetS}
	b.MsgSend(1, m, 2)
	b.MsgRecv(2, m)
	b.L1State(3, 0, 4, "I->IV")
	b.L2State(4, 0, 4, "fill", 1, 2)
	b.Lease(5, LeaseGrant, 0, 4, 1, 2, 1)
	b.LeaseExpiredAt(6, 0, 4, 1, 2)
	b.Clock(7, 0, 1, 1)
	b.Rollover(8, RolloverStall, -1, 0)
	b.StallBegin(9, 0, 0, stats.OpStore)
	b.StallEnd(10, 0, stats.OpStore, 1)
	b.DRAMOp(11, 0, 4, "read-hit")
	b.CycleReached(12)
	b.BindStats(stats.New())
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// countSink counts events and keeps nothing.
type countSink struct{ n int }

func (c *countSink) Event(*Event) { c.n++ }
func (c *countSink) Close() error { return nil }

// TestBusEmitAllocs pins the enabled hot path: every emit helper hands
// the sinks the bus's reused event, so a traced run allocates nothing
// per event (an escaping by-value event cost one heap object per call).
func TestBusEmitAllocs(t *testing.T) {
	cs := &countSink{}
	b := NewBus(NewInvariantSink(nil), cs)
	m := &coherence.Msg{Type: coherence.Data, Src: 1, Dst: 2, Warp: 3, Line: 4, Now: 5, Ver: 6, Exp: 7}
	helpers := []struct {
		name string
		emit func()
	}{
		{"MsgSend", func() { b.MsgSend(1, m, 2) }},
		{"MsgRecv", func() { b.MsgRecv(2, m) }},
		{"L1State", func() { b.L1State(3, 0, 4, "I->IV") }},
		{"L2State", func() { b.L2State(4, 0, 4, "fill", 1, 2) }},
		{"Lease", func() { b.Lease(5, LeaseGrant, 0, 4, 1, 2, 1) }},
		{"LeaseExpiredAt", func() { b.LeaseExpiredAt(6, 0, 4, 1, 2) }},
		{"Clock", func() { b.Clock(7, 0, 1, 1) }},
		{"Rollover", func() { b.Rollover(8, RolloverStall, -1, 0) }},
		{"StallBegin", func() { b.StallBegin(9, 0, 0, stats.OpStore) }},
		{"StallEnd", func() { b.StallEnd(10, 0, stats.OpStore, 1) }},
		{"DRAMOp", func() { b.DRAMOp(11, 0, 4, "read-hit") }},
	}
	for _, h := range helpers {
		before := cs.n
		if got := testing.AllocsPerRun(100, h.emit); got != 0 {
			t.Errorf("%s: %v allocations per event, want 0", h.name, got)
		}
		if cs.n == before {
			t.Errorf("%s: no event reached the sinks", h.name)
		}
	}
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
}

// TestBusReusedEventNotAliased checks that reusing one event per bus is
// invisible to a sink that keeps events: each retained copy holds its own
// field values, and no field of an earlier event leaks into a later one.
// Every helper runs right after a send that sets every field.
func TestBusReusedEventNotAliased(t *testing.T) {
	buf := &BufferSink{}
	b := NewBus(buf)
	m := &coherence.Msg{Type: coherence.Data, Src: 1, Dst: 2, Warp: 3, Line: 4, Now: 5, Ver: 6, Exp: 7, Val: 8}
	full := Event{Cycle: 1, Kind: KindSend, Src: 1, Dst: 2, Warp: 3, Line: 4, Label: coherence.Data.String(),
		Now: 5, Ver: 6, Exp: 7, Val: 8, Flits: 9}
	for _, c := range []struct {
		emit func()
		want Event
	}{
		{func() { b.MsgRecv(2, m) }, Event{Cycle: 2, Kind: KindRecv, Src: 1, Dst: 2, Warp: 3, Line: 4,
			Label: coherence.Data.String(), Now: 5, Ver: 6, Exp: 7, Val: 8}},
		{func() { b.L1State(2, 3, 10, "I->IV") }, Event{Cycle: 2, Kind: KindL1State, Src: 3, Dst: -1, Warp: -1, Line: 10, Label: "I->IV"}},
		{func() { b.L2State(2, 1, 10, "fill", 11, 12) }, Event{Cycle: 2, Kind: KindL2State, Src: 1, Dst: -1, Warp: -1, Line: 10,
			Label: "fill", Ver: 11, Exp: 12}},
		{func() { b.Lease(3, LeaseRenew, 1, 11, 12, 13, 2) }, Event{Cycle: 3, Kind: KindLease, Src: 1, Dst: 2, Warp: -1, Line: 11,
			Label: LeaseRenew, Ver: 12, Exp: 13}},
		{func() { b.LeaseExpiredAt(3, 2, 11, 13, 14) }, Event{Cycle: 3, Kind: KindLease, Src: 2, Dst: -1, Warp: -1, Line: 11,
			Label: LeaseExpired, Now: 14, Exp: 13}},
		{func() { b.Clock(3, 2, 15, 16) }, Event{Cycle: 3, Kind: KindClock, Src: 2, Dst: -1, Warp: -1, Now: 15, Ver: 16}},
		{func() { b.Rollover(3, RolloverDone, -1, 17) }, Event{Cycle: 3, Kind: KindRollover, Src: -1, Dst: -1, Warp: -1,
			Label: RolloverDone, Val: 17}},
		{func() { b.StallBegin(4, 2, 5, stats.OpLoad) }, Event{Cycle: 4, Kind: KindStallBegin, Src: 2, Dst: -1, Warp: 5,
			Label: stats.OpLoad.String()}},
		{func() { b.StallEnd(4, 2, stats.OpLoad, 14) }, Event{Cycle: 4, Kind: KindStallEnd, Src: 2, Dst: -1, Warp: -1,
			Label: stats.OpLoad.String(), Val: 14}},
		{func() { b.DRAMOp(4, 1, 18, "read-hit") }, Event{Cycle: 4, Kind: KindDRAM, Src: 1, Dst: -1, Warp: -1, Line: 18, Label: "read-hit"}},
	} {
		buf.Events = buf.Events[:0]
		b.MsgSend(1, m, 9)
		c.emit()
		if len(buf.Events) != 2 {
			t.Fatalf("buffered %d events, want 2", len(buf.Events))
		}
		if buf.Events[0] != full {
			t.Errorf("send:\n got  %+v\n want %+v", buf.Events[0], full)
		}
		if buf.Events[1] != c.want {
			t.Errorf("%s after a send:\n got  %+v\n want %+v", c.want.Kind, buf.Events[1], c.want)
		}
	}
}

// TestJSONLShape checks each emitted line is valid JSON with the full
// fixed key set, in the documented order.
func TestJSONLShape(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	b := NewBus(s)
	b.Lease(42, LeaseGrant, 1, 7, 10, 20, 3)
	b.MsgSend(43, &coherence.Msg{Type: coherence.Data, Src: 4, Dst: 0, Warp: 2,
		Line: 7, Now: 1, Ver: 10, Exp: 20, Val: 99}, 34)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2:\n%s", len(lines), buf.String())
	}
	wantKeys := []string{"cyc", "kind", "label", "src", "dst", "warp", "line", "now", "ver", "exp", "val", "flits"}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("invalid JSON %q: %v", line, err)
		}
		if len(m) != len(wantKeys) {
			t.Fatalf("line %q has %d keys, want %d", line, len(m), len(wantKeys))
		}
		pos := -1
		for _, k := range wantKeys {
			i := strings.Index(line, `"`+k+`"`)
			if i < 0 {
				t.Fatalf("line %q missing key %q", line, k)
			}
			if i < pos {
				t.Fatalf("line %q has key %q out of order", line, k)
			}
			pos = i
		}
	}
	if !strings.Contains(lines[0], `"kind":"lease"`) || !strings.Contains(lines[0], `"label":"grant"`) {
		t.Fatalf("lease line wrong: %q", lines[0])
	}
}

// TestPerfettoValidJSON checks the Chrome trace output parses and keeps
// B/E stall pairs and metadata.
func TestPerfettoValidJSON(t *testing.T) {
	var buf bytes.Buffer
	s := NewPerfettoSink(&buf)
	b := NewBus(s)
	b.StallBegin(10, 0, 3, stats.OpStore)
	b.StallEnd(25, 0, stats.OpStore, 15)
	b.MsgSend(11, &coherence.Msg{Type: coherence.GetS, Src: 0, Dst: 4, Line: 7}, 2)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		phases = append(phases, e["ph"].(string))
	}
	got := strings.Join(phases, "")
	// 7 process_name metadata records, then B/E/i.
	if want := "MMMMMMMBEi"; got != want {
		t.Fatalf("phase sequence %q, want %q", got, want)
	}
}

// TestSinkFor maps each -trace-format name to its sink type and rejects
// any other name before a writer is ever needed.
func TestSinkFor(t *testing.T) {
	for _, tc := range []struct {
		format string
		want   string // %T of the built sink; "" = error
	}{
		{"jsonl", "*trace.JSONLSink"},
		{"perfetto", "*trace.PerfettoSink"},
		{"bogus", ""},
		{"JSONL", ""},
	} {
		mk, err := SinkFor(tc.format)
		if tc.want == "" {
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(tc.format)) {
				t.Errorf("SinkFor(%q) err = %v, want an error naming the format", tc.format, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("SinkFor(%q): %v", tc.format, err)
		}
		if got := fmt.Sprintf("%T", mk(&bytes.Buffer{})); got != tc.want {
			t.Errorf("SinkFor(%q) built %s, want %s", tc.format, got, tc.want)
		}
	}
}

// TestInvariantSinkBrokenLease checks a deliberately broken lease
// (ver > exp) is caught, with the offending event in the message.
func TestInvariantSinkBrokenLease(t *testing.T) {
	var failed error
	inv := NewInvariantSink(func(err error) { failed = err })
	b := NewBus(inv)
	b.Lease(5, LeaseGrant, 0, 7, 10, 20, 1) // fine
	b.Lease(9, LeaseGrant, 0, 7, 30, 20, 1) // ver 30 > exp 20: broken
	err := b.Err()
	if err == nil {
		t.Fatal("broken lease not caught")
	}
	if failed == nil || failed.Error() != err.Error() {
		t.Fatalf("onFail not invoked with the violation: %v vs %v", failed, err)
	}
	for _, want := range []string{"cycle 9", "ver=30", "exp=20", "trace tail"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("violation message missing %q:\n%s", want, err)
		}
	}
	// The sink is inert after the first failure; Close reports it too.
	b.Lease(10, LeaseGrant, 0, 7, 40, 20, 1)
	if cerr := b.Close(); cerr == nil || cerr.Error() != err.Error() {
		t.Fatalf("Close = %v, want first violation", cerr)
	}
}

// TestInvariantSinkTail checks the failure report: the violation, then
// exactly the last 16 events up to and including the offending one,
// oldest first, each rendered by Event.String.
func TestInvariantSinkTail(t *testing.T) {
	inv := NewInvariantSink(nil)
	buf := &BufferSink{}
	b := NewBus(inv, buf)
	m := &coherence.Msg{Type: coherence.Data, Src: 1, Dst: 2, Warp: 3, Line: 4, Now: 5, Ver: 6, Exp: 7, Val: 8}
	for i := uint64(0); i < 40; i++ {
		switch i % 4 {
		case 0:
			b.MsgSend(timing.Cycle(i), m, 2)
		case 1:
			b.L2State(timing.Cycle(i), 1, 7, "write", i, i+1)
		case 2:
			b.Clock(timing.Cycle(i), int(i%3), i, i)
		case 3:
			b.StallEnd(timing.Cycle(i), 0, stats.OpStore, i)
		}
	}
	b.L2State(41, 1, 7, "write", 3, 4) // version regressed from 37
	want := "trace invariant violated at cycle 41: L2 partition 1 line 7 version regressed 37 -> 3 (l2 write)" +
		"\n  trace tail (oldest first):"
	for _, e := range buf.Events[len(buf.Events)-invariantTail:] {
		want += "\n    " + e.String()
	}
	if err := inv.Err(); err == nil || err.Error() != want {
		t.Fatalf("failure report:\n%v\nwant:\n%s", err, want)
	}
}

// TestInvariantSinkVersionRegression checks per-block L2 version
// monotonicity, and that a rollover reset legally clears it.
func TestInvariantSinkVersionRegression(t *testing.T) {
	inv := NewInvariantSink(nil)
	b := NewBus(inv)
	b.L2State(1, 0, 7, "write", 10, 20)
	b.L2State(2, 0, 7, "write", 11, 21)
	b.L2State(3, 1, 7, "write", 5, 6) // other partition: independent
	if err := b.Err(); err != nil {
		t.Fatalf("monotone versions flagged: %v", err)
	}
	b.Rollover(4, RolloverReset, -1, 0)
	b.L2State(5, 0, 7, "fill", 0, 1) // legal after reset
	if err := b.Err(); err != nil {
		t.Fatalf("post-rollover version flagged: %v", err)
	}
	b.L2State(6, 0, 7, "write", 3, 4)
	b.L2State(7, 0, 7, "write", 2, 4) // regression
	if err := b.Err(); err == nil {
		t.Fatal("version regression not caught")
	}
}

// TestInvariantSinkVersionTable drives the per-partition version tables
// through growth, rollover resets and the all-ones line, and checks that
// the first regression they report is the one a map keyed by (partition,
// line) finds.
func TestInvariantSinkVersionTable(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := timing.NewRNG(seed)
		inv := NewInvariantSink(nil)
		b := NewBus(inv)
		ref := map[[2]uint64]uint64{}
		want := -1
		for i := 0; i < 4000 && want < 0; i++ {
			part, line := rng.Intn(4), uint64(rng.Intn(600))*4+uint64(rng.Intn(4))
			if rng.Intn(50) == 0 {
				line = ^uint64(0)
			}
			if rng.Intn(1500) == 0 {
				b.Rollover(timing.Cycle(i), RolloverReset, -1, 0)
				clear(ref)
				continue
			}
			key := [2]uint64{uint64(part), line}
			ver := ref[key] + uint64(rng.Intn(3))
			if seed%2 == 0 && i >= 1000+100*int(seed) && ref[key] > 0 {
				ver = ref[key] - 1 // a regression
				want = i
			}
			ref[key] = ver
			b.L2State(timing.Cycle(i), part, line, "write", ver, ver+1)
			if err := b.Err(); (err != nil) != (want >= 0) {
				t.Fatalf("seed %d event %d: err %v, want a failure at %d", seed, i, err, want)
			}
		}
		if seed%2 == 0 && want < 0 {
			t.Fatalf("seed %d planted no regression", seed)
		}
	}
}

// TestInvariantSinkClockRegression checks core logical clocks may never
// move backwards, except across an L1 rollover flush.
func TestInvariantSinkClockRegression(t *testing.T) {
	inv := NewInvariantSink(nil)
	b := NewBus(inv)
	b.Clock(1, 0, 10, 10)
	b.Clock(2, 0, 15, 12)
	b.Rollover(3, RolloverFlush, 0, 0)
	b.Clock(4, 0, 0, 0) // legal: core 0 was flushed
	if err := b.Err(); err != nil {
		t.Fatalf("legal clock sequence flagged: %v", err)
	}
	b.Clock(5, 0, 7, 7)
	b.Clock(6, 0, 6, 7) // read view regressed
	if err := b.Err(); err == nil {
		t.Fatal("clock regression not caught")
	}
}

// TestBufferSinkReplay checks buffered events replay in order into a
// destination sink, reproducing its direct output byte for byte.
func TestBufferSinkReplay(t *testing.T) {
	emit := func(s Sink) {
		b := NewBus(s)
		b.Lease(1, LeaseGrant, 0, 7, 1, 5, 0)
		b.Clock(2, 0, 3, 3)
		b.DRAMOp(3, 0, 7, "read-miss")
	}
	var direct bytes.Buffer
	ds := NewJSONLSink(&direct)
	emit(ds)
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	buf := &BufferSink{}
	emit(buf)
	var replayed bytes.Buffer
	dst := NewJSONLSink(&replayed)
	buf.Replay(dst)
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	if direct.String() != replayed.String() {
		t.Fatalf("replay differs:\ndirect:\n%s\nreplayed:\n%s", direct.String(), replayed.String())
	}
}

// TestIntervalSink drives the cycle hook directly and checks boundary
// snapshots, fast-forward collapsing, and the final partial row.
func TestIntervalSink(t *testing.T) {
	st := stats.New()
	buf := &BufferSink{}
	iv := NewIntervalSink(buf, 100)
	b := NewBus(iv, buf)
	b.BindStats(st)

	st.Instructions = 10
	b.CycleReached(50) // below first boundary: nothing
	if len(buf.Events) != 0 {
		t.Fatalf("premature snapshot: %v", buf.Events)
	}
	b.CycleReached(100)
	if len(buf.Events) != 1 || buf.Events[0].Label != "instructions" || buf.Events[0].Val != 10 {
		t.Fatalf("first snapshot wrong: %+v", buf.Events)
	}
	st.Instructions = 25
	b.CycleReached(350) // fast-forward across two boundaries: one row at 300
	if len(buf.Events) != 2 || buf.Events[1].Cycle != 300 || buf.Events[1].Val != 15 {
		t.Fatalf("fast-forward snapshot wrong: %+v", buf.Events)
	}
	st.Instructions = 30
	st.Cycles = 410 // run loop sets this before Close
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	last := buf.Events[len(buf.Events)-1]
	if last.Cycle != 410 || last.Val != 5 {
		t.Fatalf("final partial row wrong: %+v", last)
	}
}

// TestPerfettoSpanFlows checks the causal-span export: one X slice per
// waterfall step plus an s/t/f flow chain sharing the span's id, all of it
// still valid Chrome trace JSON.
func TestPerfettoSpanFlows(t *testing.T) {
	var buf bytes.Buffer
	s := NewPerfettoSink(&buf)
	s.WriteSpanFlows([]span.Flow{
		{ID: 42, SM: 3, Name: "load sm3 w1 line 0x40", Steps: []span.FlowStep{
			{Seg: "issue", At: 10},
			{Seg: "noc_req_wire", At: 30},
			{Seg: "reply", At: 55},
		}},
		{ID: 43, SM: 0, Name: "lonely", Steps: []span.FlowStep{{Seg: "issue", At: 5}}},
	})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v\n%s", err, buf.String())
	}
	var phases []string
	for _, e := range doc.TraceEvents {
		ph := e["ph"].(string)
		if ph == "M" {
			continue
		}
		phases = append(phases, ph)
		if ph == "s" || ph == "t" || ph == "f" {
			if id := e["id"].(float64); id != 42 {
				t.Fatalf("flow event has id %v, want 42", id)
			}
		}
	}
	// 3 slices interleaved with the s/t/f chain for span 42, then one
	// lone slice (no chain) for span 43.
	if got, want := strings.Join(phases, ""), "XsXtXfX"; got != want {
		t.Fatalf("phase sequence %q, want %q", got, want)
	}
}
