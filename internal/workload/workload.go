// Package workload defines the warp-level instruction traces the simulated
// GPU executes, and generates the twelve benchmarks of Table IV as
// synthetic kernels that reproduce each application's communication
// structure (inter- vs intra-workgroup sharing, work queues, frontiers,
// halos, locks, streaming) deterministically from a seed.
//
// Traces are post-coalescing: a memory instruction carries the set of
// cache-line addresses the warp's 32 lanes touch after coalescing (one
// line when fully coalesced, more under memory divergence).
//
// A trace is a slice of fixed-size Instr records that hold no pointers, so
// the garbage collector never scans a trace and building one needs no
// write barriers. A fully coalesced access keeps its line in the record
// itself; a divergent access keeps its N lines in the Program's Pool, a
// flat pointer-free slice shared by every warp of the program, and the
// record holds their offset there. Nothing outside this package depends
// on that layout: build memory records with Program.Access and read an
// access's lines with Pool.Line.
package workload

import (
	"fmt"
	"math"

	"rccsim/internal/config"
	"rccsim/internal/timing"
)

// OpKind is a warp-level instruction kind.
type OpKind uint8

const (
	// OpCompute models ALU work: the warp is busy for Lat cycles.
	OpCompute OpKind = iota
	// OpLocal is a scratchpad (shared-memory) access: short fixed
	// latency, no interconnect, but stalled behind outstanding global
	// accesses under SC.
	OpLocal
	// OpLoad is a global load.
	OpLoad
	// OpStore is a global write-through store.
	OpStore
	// OpAtomic is a global read-modify-write performed at the L2.
	OpAtomic
	// OpFence is a memory fence: a hardware no-op under SC, a
	// completion barrier under WO.
	OpFence
	// OpBarrier synchronizes all warps of the SM (threadblock barrier).
	OpBarrier
)

// String returns a mnemonic.
func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "COMPUTE"
	case OpLocal:
		return "LOCAL"
	case OpLoad:
		return "LD"
	case OpStore:
		return "ST"
	case OpAtomic:
		return "ATOM"
	case OpFence:
		return "FENCE"
	case OpBarrier:
		return "BAR"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsGlobal reports whether the op accesses global memory.
func (k OpKind) IsGlobal() bool { return k == OpLoad || k == OpStore || k == OpAtomic }

// Instr is one warp-level instruction: 24 bytes, no pointers.
//
// A global access (OpLoad, OpStore, OpAtomic) touches N ≥ 1 coalesced
// lines: with N == 1, Line is the line itself; with N > 1, Line is the
// offset of the lines in the program's Pool. Every other op has N == 0
// and ignores Line. Build access records with Program.Access and read
// their lines with Pool.Line rather than through Line and N.
type Instr struct {
	Line uint64 // the line (N == 1) or its Pool offset (N > 1)
	Val  uint64 // store value / atomic operand
	Lat  uint32 // busy cycles (OpCompute / OpLocal)
	Op   OpKind
	N    uint8 // coalesced lines touched (global ops)
}

// MaxLines is the most lines one access can touch (N is a byte).
const MaxLines = math.MaxUint8

// Trace is the instruction sequence of one warp.
type Trace []Instr

// Pool holds the lines of a program's divergent accesses back to back.
type Pool []uint64

// Line returns line i (0 ≤ i < in.N) of the access in, whose program's
// pool is p.
func (p Pool) Line(in *Instr, i int) uint64 {
	if in.N == 1 {
		return in.Line
	}
	return p[in.Line+uint64(i)]
}

// Program is a full kernel: one trace per warp per SM.
type Program struct {
	SMs  [][]Trace // SMs[sm][warp]
	Pool Pool      // lines of the divergent accesses
}

// Access returns the record of an op touching lines with value val,
// appending the lines to p.Pool when there are more than one. Any op and
// line count up to MaxLines is encoded as given, so Validate (not Access)
// decides whether the record is well formed; more than MaxLines lines
// cannot be encoded and panic.
func (p *Program) Access(op OpKind, val uint64, lines ...uint64) Instr {
	in := Instr{Val: val}
	p.access(&in, op, lines)
	return in
}

// access is Access encoding op and lines into *in, which holds only its
// value. Filling a record in place matters on the generators' hot path: a
// record assembled aside and copied in whole is read back before its
// narrow field stores retire, which stalls store forwarding.
func (p *Program) access(in *Instr, op OpKind, lines []uint64) {
	in.Op = op
	if len(lines) == 1 {
		in.Line, in.N = lines[0], 1
	} else {
		p.pooled(in, lines)
	}
}

// pooled is access for any line count but one.
func (p *Program) pooled(in *Instr, lines []uint64) {
	if len(lines) > MaxLines {
		panic(fmt.Sprintf("workload: %v touches %d lines (> %d)", in.Op, len(lines), MaxLines))
	}
	in.N = uint8(len(lines))
	if len(lines) > 1 {
		in.Line = uint64(len(p.Pool))
		p.Pool = append(p.Pool, lines...)
	}
}

// Stats summarises a program (used by tests and tools).
type Stats struct {
	Instrs, Loads, Stores, Atomics, Fences, Barriers, Locals, Computes int
}

// Count tallies instruction kinds.
func (p *Program) Count() Stats {
	var s Stats
	for _, sm := range p.SMs {
		for _, tr := range sm {
			for _, in := range tr {
				s.Instrs++
				switch in.Op {
				case OpLoad:
					s.Loads++
				case OpStore:
					s.Stores++
				case OpAtomic:
					s.Atomics++
				case OpFence:
					s.Fences++
				case OpBarrier:
					s.Barriers++
				case OpLocal:
					s.Locals++
				case OpCompute:
					s.Computes++
				}
			}
		}
	}
	return s
}

// Benchmark is one entry of Table IV.
type Benchmark struct {
	Name  string // paper abbreviation (BH, BFS, ...)
	Desc  string
	Inter bool // inter-workgroup (cross-SM) sharing
	Gen   func(cfg config.Config, rng *timing.RNG) *Program
}

// All returns the twelve benchmarks in the paper's order: six with
// inter-workgroup communication, six with intra-workgroup communication.
func All() []Benchmark {
	return []Benchmark{
		{Name: "BH", Desc: "Barnes-Hut n-body tree build and force computation", Inter: true, Gen: genBH},
		{Name: "BFS", Desc: "breadth-first search with a shared frontier mask", Inter: true, Gen: genBFS},
		{Name: "CL", Desc: "cloth physics with cross-block neighbour reads", Inter: true, Gen: genCL},
		{Name: "DLB", Desc: "work-stealing octree partitioning (per-block queues)", Inter: true, Gen: genDLB},
		{Name: "STN", Desc: "stencil solver with fast inter-block barriers", Inter: true, Gen: genSTN},
		{Name: "VPR", Desc: "place & route over a lock-protected shared grid", Inter: true, Gen: genVPR},
		{Name: "HSP", Desc: "hotspot 2D thermal simulation (tiled, private)", Inter: false, Gen: genHSP},
		{Name: "KMN", Desc: "k-means clustering (streaming reads, local accumulation)", Inter: false, Gen: genKMN},
		{Name: "LPS", Desc: "3D Laplace solver (structured private tiles)", Inter: false, Gen: genLPS},
		{Name: "NDL", Desc: "Needleman-Wunsch wavefront within blocks", Inter: false, Gen: genNDL},
		{Name: "SR", Desc: "speckle-reducing anisotropic diffusion (streaming)", Inter: false, Gen: genSR},
		{Name: "LUD", Desc: "LU decomposition on per-block tiles", Inter: false, Gen: genLUD},
	}
}

// Inter returns the inter-workgroup benchmarks.
func Inter() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if b.Inter {
			out = append(out, b)
		}
	}
	return out
}

// Intra returns the intra-workgroup benchmarks.
func Intra() []Benchmark {
	var out []Benchmark
	for _, b := range All() {
		if !b.Inter {
			out = append(out, b)
		}
	}
	return out
}

// ByName looks a benchmark up by its paper abbreviation.
func ByName(name string) (Benchmark, bool) {
	for _, b := range All() {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// Generate builds the program for b under cfg (deterministic in cfg.Seed).
// The per-benchmark stream is derived from an FNV-1a hash of the full name:
// seeding by the name's length (as earlier versions did) gave every
// three-letter benchmark one shared RNG stream and BH/CL/SR another.
func (b Benchmark) Generate(cfg config.Config) *Program {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(b.Name); i++ {
		h ^= uint64(b.Name[i])
		h *= fnvPrime
	}
	return b.Gen(cfg, timing.NewRNG(cfg.Seed*1000003+h))
}
