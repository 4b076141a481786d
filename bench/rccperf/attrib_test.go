package main

import (
	"bytes"
	"math/rand"
	"runtime/pprof"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"sim.New takes precedence over the L2 it builds",
			[]string{"rccsim/internal/core.NewL2", "rccsim/internal/sim.New", "main.(*bench).plainRun"}, "sim.new"},
		{"Generate takes precedence over the benchmark below it",
			[]string{"runtime.growslice", "rccsim/internal/workload.genBH.func1", "rccsim/internal/workload.build",
				"rccsim/internal/workload.genBH", "rccsim/internal/workload.Benchmark.Generate", "main.(*bench).generate"}, "workload"},
		{"RCC L1 method", []string{"rccsim/internal/core.(*L1).Tick", "rccsim/internal/sim.(*Machine).Step"}, "coherence.l1"},
		{"TC L2 method", []string{"rccsim/internal/coherence/tc.(*L2).handleGet", "rccsim/internal/coherence/tc.(*L2).Tick"}, "coherence.l2"},
		{"MESI L1 closure", []string{"rccsim/internal/coherence/mesi.(*L1).Tick.func1"}, "coherence.l1"},
		{"RCC logical clock belongs to the L1", []string{"rccsim/internal/core.(*Clock).Observe", "rccsim/internal/sim.(*Machine).Step"}, "coherence.l1"},
		{"cache array is transparent",
			[]string{"rccsim/internal/mem.(*Array[go.shape.struct { rccsim/internal/core.meta }]).Lookup", "rccsim/internal/coherence/mesi.(*L2).lookup", "rccsim/internal/gpu.(*SM).Tick"}, "coherence.l2"},
		{"MSHRs are transparent",
			[]string{"rccsim/internal/mem.(*MSHRs[go.shape.struct {}]).Get", "rccsim/internal/core.(*L1).access", "rccsim/internal/gpu.(*SM).Tick"}, "coherence.l1"},
		{"calendar, stats and malloc are transparent",
			[]string{"runtime.mallocgc", "rccsim/internal/timing.(*Calendar[go.shape.*rccsim/internal/coherence.Msg]).Push",
				"rccsim/internal/stats.(*Run).Traffic", "rccsim/internal/noc.(*Network).Send", "rccsim/internal/core.(*L1).send"}, "noc"},
		{"message pool is transparent",
			[]string{"rccsim/internal/coherence.(*MsgPool).Get", "rccsim/internal/coherence/mesi.(*L2).reply"}, "coherence.l2"},
		{"protocol package helper is transparent",
			[]string{"rccsim/internal/coherence/tc.leaseExpired", "rccsim/internal/gpu.(*SM).drainSubmit"}, "gpu"},
		{"DRAM", []string{"rccsim/internal/mem.(*DRAM).schedule", "rccsim/internal/mem.(*DRAM).Tick", "rccsim/internal/core.(*L2).Tick"}, "mem.dram"},
		{"backing store is transparent", []string{"rccsim/internal/mem.(*Backing).Read", "rccsim/internal/check.(*mcDriver).runOne"}, "check"},
		{"trace and spans belong to obs",
			[]string{"rccsim/internal/trace.(*InvariantSink).Event", "rccsim/internal/trace.(*Bus).emit", "rccsim/internal/noc.(*Network).Send"}, "obs"},
		{"span recorder", []string{"rccsim/internal/obs/span.(*Recorder).Mark", "rccsim/internal/gpu.(*SM).Tick"}, "obs"},
		{"benchmark's own code", []string{"crypto/sha256.block", "main.(*bench).checkedRun"}, "bench"},
		{"GC mark worker", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}, "runtime.gc"},
		{"sweeper", []string{"runtime.(*mspan).sweep", "runtime.sweepone", "runtime.bgsweep"}, "runtime.gc"},
		{"profiler's GC pseudo-frame", []string{"runtime._GC"}, "runtime.gc"},
		{"GC assist is charged to the allocating layer",
			[]string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc", "rccsim/internal/gpu.(*SM).Tick"}, "gpu"},
		{"scheduler", []string{"runtime.futex", "runtime.mPark", "runtime.schedule", "runtime.mstart"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestSplitFunc(t *testing.T) {
	for _, c := range []struct{ fn, pkg, sym string }{
		{"rccsim/internal/core.(*L1).Tick", "rccsim/internal/core", "(*L1).Tick"},
		{"main.run", "main", "run"},
		{"runtime.mallocgc", "runtime", "mallocgc"},
		{"rccsim/internal/mem.(*MSHRs[go.shape.*rccsim/internal/core.x]).Get", "rccsim/internal/mem", "(*MSHRs[go.shape.*rccsim/internal/core.x]).Get"},
		{"noDot", "", "noDot"},
	} {
		pkg, sym := splitFunc(c.fn)
		if pkg != c.pkg || sym != c.sym {
			t.Errorf("splitFunc(%q) = %q, %q; want %q, %q", c.fn, pkg, sym, c.pkg, c.sym)
		}
	}
}

// The shares always sum to exactly 100.0 in tenths of a percent.
func TestSharesSumTo100(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		lt := layerTime{ns: make([]int64, len(layers))}
		for i := range lt.ns {
			if rng.Intn(3) > 0 {
				lt.ns[i] = rng.Int63n(1e11)
			}
		}
		lt.ns[rng.Intn(len(layers))]++ // at least one nonzero
		tenths := 0
		for _, pct := range lt.shares() {
			tenths += int(pct*10 + 0.5)
		}
		if tenths != 1000 {
			t.Fatalf("trial %d: shares of %v sum to %d tenths", trial, lt.ns, tenths)
		}
	}
}

// A real CPU profile decodes into samples whose stacks reach this test.
func TestDecodeRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiler busy: %v", err)
	}
	start := cpuTime()
	x := 0
	for cpuTime()-start < 200*time.Millisecond {
		for i := 0; i < 1e6; i++ {
			x += i * i
		}
	}
	pprof.StopCPUProfile()
	sink = x

	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	lt := attribute(p)
	if lt.samples == 0 || lt.totalNs == 0 {
		t.Fatalf("decoded %d samples, %d ns from a 200 ms profile", lt.samples, lt.totalNs)
	}
	found := false
	for _, s := range p.samples {
		for _, fn := range s.stack {
			if fn == "rccsim/bench/rccperf.TestDecodeRealProfile" || fn == "main.TestDecodeRealProfile" {
				found = true
			}
		}
	}
	if !found {
		t.Errorf("no sample's stack names the profiled test function")
	}
}

var sink int
