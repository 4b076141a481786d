package sim

import (
	"bytes"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"runtime"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// loadHash digests every load result in completion order, so a stale
// value left in a cache or the backing image by an earlier run shows up
// even where no counter moves.
type loadHash struct{ h hash.Hash64 }

func newLoadHash() *loadHash { return &loadHash{h: fnv.New64a()} }

func (l *loadHash) LoadObserved(sm, warp, pc int, line, val uint64) {
	var b [40]byte
	for i, v := range [...]uint64{uint64(sm), uint64(warp), uint64(pc), line, val} {
		binary.LittleEndian.PutUint64(b[8*i:], v)
	}
	l.h.Write(b[:])
}

// runRecord is what a run must reproduce: its counters on the wire, the
// run error's text ("" for a clean finish), and digests of its loads and
// of its full trace event stream (clock ticks, lease timestamps, message
// payloads), which sees state no counter does.
type runRecord struct {
	wire          []byte
	err           string
	loads, events uint64
}

func (r runRecord) equal(o runRecord) bool {
	return bytes.Equal(r.wire, o.wire) && r.err == o.err && r.loads == o.loads && r.events == o.events
}

// record attaches a tracing bus to m, runs it and digests the run. obs
// is m's load observer.
func record(t *testing.T, m *Machine, obs *loadHash) runRecord {
	t.Helper()
	events := fnv.New64a()
	bus := trace.NewBus(trace.NewJSONLSink(events))
	m.Attach(trace.Observers{Tr: bus})
	st, err := m.Run()
	if cerr := bus.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	r := runRecord{wire: st.WireBytes(), loads: obs.h.Sum64(), events: events.Sum64()}
	if err != nil {
		r.err = err.Error()
	}
	return r
}

// resetRecord resets m onto prog and runs it.
func resetRecord(t *testing.T, m *Machine, prog *workload.Program) runRecord {
	t.Helper()
	obs := newLoadHash()
	if err := m.Reset(prog, obs); err != nil {
		t.Fatal(err)
	}
	return record(t, m, obs)
}

// freshRecord runs prog on a machine built for it alone.
func freshRecord(t *testing.T, cfg config.Config, prog *workload.Program) runRecord {
	t.Helper()
	obs := newLoadHash()
	m, err := New(cfg, prog, obs)
	if err != nil {
		t.Fatal(err)
	}
	return record(t, m, obs)
}

// newMachine builds a machine for prog with no observer.
func newMachine(t *testing.T, cfg config.Config, prog *workload.Program) *Machine {
	t.Helper()
	m, err := New(cfg, prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// resetConfigs is every protocol on config.Small() at a small scale, plus
// variants that reach state the default machine leaves untouched: RCC and
// RCC-WO with the narrowest timestamps Validate allows and a short
// livelock tick (rollovers, clock ticks), MESI and TCS with a 4-line L2
// partition (evictions write the backing image back) and, for TCS, long
// leases (stalled stores).
func resetConfigs() []config.Config {
	var cfgs []config.Config
	for _, p := range goldenProtocols {
		cfg := resetConfig(p)
		cfgs = append(cfgs, cfg)
		switch p {
		case config.RCC, config.RCCWO:
			narrow := cfg
			narrow.RCCTSMax = 4 * cfg.RCCMaxLease
			narrow.RCCLivelockTick = 300
			cfgs = append(cfgs, narrow)
		case config.MESI, config.TCS:
			tiny := cfg
			tiny.L2SetsPerPart, tiny.L2Ways = 2, 2
			tiny.TCLease = 4000 // TCS stores stall behind long leases
			cfgs = append(cfgs, tiny)
		}
	}
	return cfgs
}

// resetConfig is protocol p on config.Small() at a small scale.
func resetConfig(p config.Protocol) config.Config {
	cfg := config.Small()
	cfg.Protocol = p
	cfg.Scale = 0.1
	return cfg
}

// generate builds every kernel for cfg.
func generate(cfg config.Config) ([]workload.Benchmark, []*workload.Program) {
	benches := workload.All()
	progs := make([]*workload.Program, len(benches))
	for i, b := range benches {
		progs[i] = b.Generate(cfg)
	}
	return benches, progs
}

// TestResetMatchesFresh runs the 12 kernels in turn on one machine per
// config, resetting it between kernels, so each kernel runs on a machine
// that last ran a different one. Its counters must be byte-identical, on
// the wire, to a run on a machine built for it alone, and it must load
// the same values in the same order.
func TestResetMatchesFresh(t *testing.T) {
	rollovers := uint64(0)
	for _, cfg := range resetConfigs() {
		benches, progs := generate(cfg)
		m := newMachine(t, cfg, progs[len(progs)-1])
		if _, err := m.Run(); err != nil {
			t.Fatalf("%v/%s: %v", cfg.Protocol, benches[len(benches)-1].Name, err)
		}
		for i, b := range benches {
			got := resetRecord(t, m, progs[i])
			rollovers += m.Stats().Rollovers
			if want := freshRecord(t, cfg, progs[i]); !got.equal(want) {
				t.Errorf("%v/%s (TSMax %d): reset machine differs from a fresh one (errors %q vs %q)",
					cfg.Protocol, b.Name, cfg.RCCTSMax, got.err, want.err)
			}
		}
	}
	if rollovers == 0 {
		t.Error("no run rolled its timestamps over; the narrow-timestamp configs no longer exercise rollover")
	}
}

// TestResetAfterAbort resets machines that a MaxCycles abort left with
// messages in flight, misses outstanding, stores stalled and warps
// mid-trace, at several cut points per kernel. Only Run reads MaxCycles,
// so the test lifts the cap on the aborted machine before the reset: the
// next kernel then runs to the end, past every cycle that state from the
// aborted run was due at, and must match a fresh uncapped run exactly.
func TestResetAfterAbort(t *testing.T) {
	aborts := 0
	for _, cfg := range resetConfigs() {
		benches, progs := generate(cfg)
		cuts := []uint64{400, 700, 1200, 2000, 3000}
		if testing.Short() {
			cuts = []uint64{700, 3000}
		}
		for _, cut := range cuts {
			capped := cfg
			capped.MaxCycles = cut
			for i := range benches {
				m := newMachine(t, capped, progs[i])
				if _, err := m.Run(); err == nil || !strings.Contains(err.Error(), "MaxCycles") {
					continue // finished early: nothing left mid-flight
				}
				aborts++
				m.cfg.MaxCycles = cfg.MaxCycles
				next := (i + 1) % len(progs)
				got := resetRecord(t, m, progs[next])
				if want := freshRecord(t, cfg, progs[next]); !got.equal(want) {
					t.Errorf("%v (TSMax %d): %s after %s aborted at cycle %d differs from a fresh run (errors %q vs %q)",
						cfg.Protocol, cfg.RCCTSMax, benches[next].Name, benches[i].Name, cut, got.err, want.err)
				}
			}
		}
	}
	if aborts < len(goldenProtocols) {
		t.Errorf("only %d kernel runs hit MaxCycles; the test needs mid-flight aborts", aborts)
	}
}

// TestResetMidRollover aborts an RCC run while a timestamp rollover is
// under way (the coordinator stalling or flushing, the controllers
// frozen), then resets it; the next run must match a fresh one.
func TestResetMidRollover(t *testing.T) {
	cfg := resetConfig(config.RCC)
	cfg.RCCTSMax = 4 * cfg.RCCMaxLease
	benches, progs := generate(cfg)
	for i := range benches {
		for cut := uint64(200); cut < 20000; cut += 97 {
			capped := cfg
			capped.MaxCycles = cut
			m := newMachine(t, capped, progs[i])
			if _, err := m.Run(); err == nil {
				break // the kernel finished: later cut points cannot abort it
			}
			if !m.RolloverActive() {
				continue
			}
			m.cfg.MaxCycles = cfg.MaxCycles
			next := (i + 1) % len(progs)
			got := resetRecord(t, m, progs[next])
			if want := freshRecord(t, cfg, progs[next]); !got.equal(want) {
				t.Fatalf("%s after %s aborted mid-rollover at cycle %d differs from a fresh run (errors %q vs %q)",
					benches[next].Name, benches[i].Name, cut, got.err, want.err)
			}
			return
		}
	}
	t.Fatal("no cut point aborted a run mid-rollover")
}

// TestResetClearsFenceState: a TCW warp whose last store hit a leased line
// and was never fenced leaves a global write completion time past the end
// of the run; after Reset, a fence at the start of the next program must
// not wait for it.
func TestResetClearsFenceState(t *testing.T) {
	cfg := resetConfig(config.TCW)
	cfg.TCLease = 5000
	prog := func(sm0, sm1 workload.Trace) *workload.Program {
		p := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
		p.SMs[0] = []workload.Trace{sm0}
		p.SMs[1] = []workload.Trace{sm1}
		return p
	}
	// SM 1 leases line 1; SM 0 stores to it once the lease is granted.
	store := prog(
		workload.Trace{{Op: workload.OpCompute, Lat: 1000}, {Op: workload.OpStore, Lines: []uint64{1}, Val: 1}},
		workload.Trace{{Op: workload.OpLoad, Lines: []uint64{1}}})
	fence := prog(workload.Trace{{Op: workload.OpFence}, {Op: workload.OpLoad, Lines: []uint64{2}}}, nil)
	m := newMachine(t, cfg, store)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := resetRecord(t, m, fence), freshRecord(t, cfg, fence); !got.equal(want) {
		t.Errorf("fence after Reset differs from a fresh run (errors %q vs %q)", got.err, want.err)
	}
}

// countSink counts the events it is sent.
type countSink struct{ n int }

func (c *countSink) Event(*trace.Event) { c.n++ }
func (c *countSink) Close() error       { return nil }

// TestResetDetachesObservers: observers attached before a Reset see
// nothing of the next run until they are attached again.
func TestResetDetachesObservers(t *testing.T) {
	cfg := resetConfig(config.RCC)
	_, progs := generate(cfg)
	m, err := New(cfg, progs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	cs := &countSink{}
	m.Attach(trace.Observers{Tr: trace.NewBus(cs)})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	seen := cs.n
	if seen == 0 {
		t.Fatal("attached bus saw no events")
	}
	if err := m.Reset(progs[1], nil); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if cs.n != seen {
		t.Errorf("bus saw %d events after Reset detached it", cs.n-seen)
	}
}

// TestResetAllocBudget: Reset plus a run of a small kernel on a machine
// that already ran it allocates at most a tenth of what New plus the same
// run does. What remains is the MSHR slot arrays regrowing past their
// initial size (Reset shrinks them so ForEach order matches a new table).
func TestResetAllocBudget(t *testing.T) {
	cfg := resetConfig(config.RCC)
	_, progs := generate(cfg)
	perRun := func(f func() *Machine) uint64 {
		const runs = 10
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := f().Run(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	m, err := New(cfg, progs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	reset := perRun(func() *Machine {
		if err := m.Reset(progs[0], nil); err != nil {
			t.Fatal(err)
		}
		return m
	})
	fresh := perRun(func() *Machine {
		m, err := New(cfg, progs[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	t.Logf("per run: Reset %d B, New %d B", reset, fresh)
	if reset*10 > fresh {
		t.Errorf("Reset plus a run allocates %d B, more than a tenth of New plus a run (%d B)", reset, fresh)
	}
}

// TestProgramWiderThanMachine: a program with more warps on an SM than
// the config's WarpsPerSM is rejected by New and by Reset under every
// protocol, instead of indexing per-warp controller state out of range.
// The program is each warp storing then fencing, which panicked TCW's
// fence check before the gate existed.
func TestProgramWiderThanMachine(t *testing.T) {
	for _, p := range goldenProtocols {
		cfg := config.Small()
		cfg.Protocol = p
		wide := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
		for w := 0; w <= cfg.WarpsPerSM; w++ {
			wide.SMs[0] = append(wide.SMs[0], workload.Trace{
				{Op: workload.OpStore, Lines: []uint64{uint64(w)}, Val: 1},
				{Op: workload.OpFence},
			})
		}
		if _, err := New(cfg, wide, nil); err == nil || !strings.Contains(err.Error(), "warps") {
			t.Errorf("%v: New accepted %d warps on a %d-warp SM (err %v)", p, cfg.WarpsPerSM+1, cfg.WarpsPerSM, err)
		}
		fit := &workload.Program{SMs: make([][]workload.Trace, cfg.NumSMs)}
		fit.SMs[0] = wide.SMs[0][:cfg.WarpsPerSM]
		m, err := New(cfg, fit, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Reset(wide, nil); err == nil || !strings.Contains(err.Error(), "warps") {
			t.Errorf("%v: Reset accepted %d warps on a %d-warp SM (err %v)", p, cfg.WarpsPerSM+1, cfg.WarpsPerSM, err)
		}
		// The rejected Reset left the machine as it was.
		if _, err := m.Run(); err != nil {
			t.Errorf("%v: machine unusable after a rejected Reset: %v", p, err)
		}
	}
}
