package main

import (
	"strings"

	"rccsim/internal/report"
)

// layers are the simulator's modules that host CPU time is charged to,
// in report order. "bench" is this benchmark's own code, "runtime.gc"
// the garbage collector's background workers, and "other" everything
// with no owner (scheduler, signal handling).
var layers = []string{
	"workload", "sim.new", "sim", "gpu", "coherence.l1", "coherence.l2",
	"noc", "mem.dram", "check", "obs", "runtime.gc", "bench", "other",
}

const internal = "rccsim/internal/"

// layerOf charges one CPU sample's stack (leaf first) to a layer:
//
//   - a stack containing sim.New goes to "sim.new", one containing
//     Benchmark.Generate to "workload", whatever lies below them;
//   - otherwise the first frame, walking from the leaf toward the root,
//     whose function a layer owns decides (see owner);
//   - a stack with no owning frame goes to "runtime.gc" when it is a GC
//     worker or sweeper, else to "other".
func layerOf(stack []string) string {
	for _, fn := range stack {
		switch pkg, sym := splitFunc(fn); {
		case pkg == internal+"sim" && isFunc(sym, "New"):
			return "sim.new"
		case pkg == internal+"workload" && isFunc(sym, "Benchmark.Generate"):
			return "workload"
		}
	}
	for _, fn := range stack {
		if l := owner(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// owner returns the layer that owns function fn, or "" for a transparent
// helper whose time belongs to its caller: mem.Array, MSHRs and Backing,
// the timing, stats, config and coherence packages, package-level
// helpers of the protocol packages, the runtime (malloc, memclr) and the
// standard library.
func owner(fn string) string {
	pkg, sym := splitFunc(fn)
	switch pkg {
	case "main", "runtime/pprof":
		return "bench"
	case internal + "sim":
		return "sim"
	case internal + "gpu":
		return "gpu"
	case internal + "noc":
		return "noc"
	case internal + "check":
		return "check"
	case internal + "workload":
		return "workload"
	case internal + "obs", internal + "obs/span", internal + "trace":
		return "obs"
	case internal + "mem":
		if receiver(sym) == "DRAM" || isFunc(sym, "NewDRAM") {
			return "mem.dram"
		}
	case internal + "core", internal + "coherence/tc", internal + "coherence/mesi":
		recv := receiver(sym)
		switch {
		case recv == "L1" || isFunc(sym, "NewL1"),
			pkg == internal+"core" && (recv == "Clock" || isFunc(sym, "NewClock")):
			return "coherence.l1"
		case recv == "L2" || isFunc(sym, "NewL2"):
			return "coherence.l2"
		}
	}
	return ""
}

// isGCFrame reports whether fn is part of the garbage collector's
// background work (mark workers, sweeper, scavenger) or the profiler's
// synthetic GC frame.
func isGCFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime._GC", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// isAllocLeaf reports whether a sample whose leaf is fn was spent
// allocating or clearing memory.
func isAllocLeaf(fn string) bool {
	for _, p := range []string{
		"runtime.malloc", "runtime.memclr", "runtime.newobject", "runtime.newarray",
		"runtime.makeslice", "runtime.makemap", "runtime.growslice", "runtime.nextFreeFast",
		"runtime.heapSetType", "runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap).alloc",
	} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// splitFunc splits a symbolized Go function name into its import path
// and the symbol within the package:
// "rccsim/internal/core.(*L1).Tick" → ("rccsim/internal/core", "(*L1).Tick").
// Type arguments may themselves hold paths, so the split looks only at
// the part before the first '['.
func splitFunc(fn string) (pkg, sym string) {
	head := fn
	if i := strings.IndexByte(head, '['); i >= 0 {
		head = head[:i]
	}
	slash := strings.LastIndexByte(head, '/') + 1
	dot := strings.IndexByte(head[slash:], '.')
	if dot < 0 {
		return "", fn
	}
	return fn[:slash+dot], fn[slash+dot+1:]
}

// receiver returns the receiver type name of a method symbol
// ("(*L1).Tick" and "L1.Tick" → "L1"; "(*MSHRs[...]).Get" → "MSHRs"),
// or "" for a plain function.
func receiver(sym string) string {
	if strings.HasPrefix(sym, "(*") {
		sym = sym[2:]
		if i := strings.IndexAny(sym, ")["); i >= 0 {
			return sym[:i]
		}
		return ""
	}
	if i := strings.IndexAny(sym, ".["); i >= 0 && sym[i] == '.' {
		return sym[:i]
	}
	return ""
}

// isFunc reports whether sym is the function name or one of its
// closures ("New", "New.func1").
func isFunc(sym, name string) bool {
	return sym == name || strings.HasPrefix(sym, name+".func")
}

// layerTime is a profile's CPU time charged to each layer.
type layerTime struct {
	ns      []int64 // indexed like layers
	samples int64
	totalNs int64
	allocNs int64 // samples whose leaf is malloc/memclr; cross-cutting
}

// attribute charges every CPU sample of p to a layer.
func attribute(p *profile) layerTime {
	lt := layerTime{ns: make([]int64, len(layers))}
	cnt, cpu := p.valueIndex("samples/count"), p.valueIndex("cpu/nanoseconds")
	index := make(map[string]int, len(layers))
	for i, l := range layers {
		index[l] = i
	}
	for _, s := range p.samples {
		var n, ns int64 = 1, p.period
		if cnt >= 0 && cnt < len(s.values) {
			n = s.values[cnt]
			ns = n * p.period
		}
		if cpu >= 0 && cpu < len(s.values) {
			ns = s.values[cpu]
		}
		lt.samples += n
		lt.totalNs += ns
		lt.ns[index[layerOf(s.stack)]] += ns
		if len(s.stack) > 0 && isAllocLeaf(s.stack[0]) {
			lt.allocNs += ns
		}
	}
	return lt
}

// shares returns each layer's share of the total in percent, rounded to
// tenths so that they sum to exactly 100.0 (all zero without samples).
func (lt layerTime) shares() []float64 {
	v := make([]uint64, len(lt.ns))
	var total uint64
	for i, ns := range lt.ns {
		v[i] = uint64(ns)
		total += uint64(ns)
	}
	return report.PercentShares(v, total)
}

// nsOf returns the CPU time charged to layer l.
func (lt layerTime) nsOf(l string) int64 {
	for i, name := range layers {
		if name == l {
			return lt.ns[i]
		}
	}
	return 0
}
