package workload

import (
	"slices"

	"rccsim/internal/config"
	"rccsim/internal/timing"
)

// region is a contiguous range of cache lines carved from the address
// space by a bump allocator.
type region struct {
	base uint64
	n    uint64
}

func (r region) line(i uint64) uint64 { return r.base + i%r.n }

func (r region) rand(rng *timing.RNG) uint64 { return r.base + rng.Uint64n(r.n) }

// alloc is the address-space bump allocator; regions never overlap.
type alloc struct{ next uint64 }

func (a *alloc) region(lines uint64) region {
	if lines == 0 {
		lines = 1
	}
	r := region{base: a.next, n: lines}
	a.next += lines
	return r
}

// scaled applies the workload scale factor with a floor of 1.
func scaled(cfg config.Config, n int) int {
	v := int(float64(n) * cfg.Scale)
	if v < 1 {
		v = 1
	}
	return v
}

// tb builds one warp's trace into its program.
type tb struct {
	t   Trace
	p   *Program
	rng *timing.RNG
}

func (b *tb) compute(lat uint32)                { b.busy(OpCompute, lat) }
func (b *tb) local(lat uint32)                  { b.busy(OpLocal, lat) }
func (b *tb) fence()                            { b.busy(OpFence, 0) }
func (b *tb) barrier()                          { b.busy(OpBarrier, 0) }
func (b *tb) load(lines ...uint64)              { b.access(OpLoad, 0, lines) }
func (b *tb) store(val uint64, lines ...uint64) { b.access(OpStore, val, lines) }
func (b *tb) atomic(line uint64, operand uint64) {
	b.access(OpAtomic, operand, []uint64{line})
}

// busy appends a record without lines, filled in place (see
// Program.access).
func (b *tb) busy(op OpKind, lat uint32) {
	b.t = append(b.t, Instr{})
	in := &b.t[len(b.t)-1]
	in.Op, in.Lat = op, lat
}

// access appends the record Program.Access builds, filled in place (see
// Program.access).
func (b *tb) access(op OpKind, val uint64, lines []uint64) {
	b.t = append(b.t, Instr{})
	in := &b.t[len(b.t)-1]
	in.Val = val
	b.p.access(in, op, lines)
}

// loadDiv emits a divergent load touching k distinct-ish lines of r.
func (b *tb) loadDiv(r region, k int) {
	var buf [8]uint64 // Access copies the lines, so this stays on the stack
	lines := buf[:0]
	for i := 0; i < k; i++ {
		lines = append(lines, r.rand(b.rng))
	}
	b.load(lines...)
}

// build runs gen once per (sm, warp) with a forked RNG so traces are
// independent of generation order.
func build(cfg config.Config, rng *timing.RNG, gen func(b *tb, sm, warp int)) *Program {
	p := &Program{SMs: make([][]Trace, cfg.NumSMs)}
	// One builder reused across warps: the RNG is re-seeded per warp
	// (same stream as Fork), and each trace is pre-sized to the previous
	// warp's length (warps are homogeneous, so the hint is exact after
	// the first).
	var wrng timing.RNG
	b := &tb{p: p, rng: &wrng}
	hint := 64
	// Traces are carved from one arena per SM: each warp gets a window of
	// cap hint; an append past the window reallocates (correct, just off
	// the arena), and a warp that fits advances the carve point by its
	// actual length, so homogeneous warps pack tightly. This turns
	// warps-per-SM trace allocations into one.
	var arena []Instr
	used := 0
	for sm := 0; sm < cfg.NumSMs; sm++ {
		p.SMs[sm] = make([]Trace, cfg.WarpsPerSM)
		if cap(arena)-used < hint*cfg.WarpsPerSM {
			arena = make([]Instr, 0, hint*cfg.WarpsPerSM)
			used = 0
		}
		for w := 0; w < cfg.WarpsPerSM; w++ {
			rng.ForkInto(&wrng)
			if used+hint <= cap(arena) {
				b.t = arena[used : used : used+hint]
			} else {
				b.t = make(Trace, 0, hint)
			}
			gen(b, sm, w)
			p.SMs[sm][w] = b.t
			if len(b.t) <= hint && used+hint <= cap(arena) {
				used += len(b.t) // stayed inside its arena window
			}
			if len(b.t) > hint {
				hint = len(b.t)
			}
			if sm == 0 && w == 0 {
				// Warps are homogeneous: size the pool for all of them
				// from the first.
				p.Pool = slices.Grow(p.Pool, len(p.Pool)*(cfg.NumSMs*cfg.WarpsPerSM-1))
			}
		}
	}
	return p
}

// ---------------------------------------------------------------------------
// Inter-workgroup benchmarks (cross-SM read-write sharing).
// ---------------------------------------------------------------------------

// genBH models Barnes-Hut: a build phase inserting bodies into a shared
// tree (atomics on allocation counters, stores to shared nodes), then a
// force phase traversing the tree — heavily read-shared with a hot top.
func genBH(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	tree := a.region(4096)
	top := a.region(32) // hot upper tree levels
	ctrs := a.region(16)
	bodies := a.region(uint64(cfg.NumSMs*cfg.WarpsPerSM) * 8)
	iters := scaled(cfg, 10)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		priv := bodies.base + uint64(sm*cfg.WarpsPerSM+warp)*8
		// Each timestep traverses the tree (force phase: reads of the
		// hot top and random subtrees) and then rebuilds part of it
		// (stores to nodes other SMs have been traversing).
		for i := 0; i < iters; i++ {
			// Traversal: the hot upper levels are read constantly by
			// every SM but written only occasionally (read-mostly).
			b.load(top.rand(b.rng))
			b.load(top.rand(b.rng))
			b.load(top.rand(b.rng))
			b.loadDiv(tree, 2)
			b.compute(60)
			b.store(uint64(i), priv+uint64(i)%8)

			treeLine := tree.rand(b.rng)
			b.load(treeLine)
			b.atomic(ctrs.rand(b.rng), 1)
			b.store(uint64(i+1), treeLine) // link the new node in
			if b.rng.Bool(0.25) {
				// Occasional subtree-count update high in the tree:
				// invalidates every concurrent traverser's copy.
				topLine := top.rand(b.rng)
				b.load(topLine)
				b.store(uint64(i+2), topLine)
			}
			b.compute(20)
			b.fence()
		}
		b.barrier()
	})
}

// genBFS models breadth-first search: all SMs read and write a shared
// frontier mask at fine grain (line-level false sharing), count visits
// with atomics, and synchronize per level.
func genBFS(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	mask := a.region(256)
	next := a.region(256)
	nodes := a.region(4096) // adjacency data, read-mostly
	ctr := a.region(8)
	levels := scaled(cfg, 5)
	width := scaled(cfg, 6)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		for l := 0; l < levels; l++ {
			for i := 0; i < width; i++ {
				// The current frontier mask is read-hot by every SM.
				b.load(mask.rand(b.rng))
				b.load(mask.rand(b.rng))
				b.loadDiv(nodes, 2) // neighbours
				b.compute(24)
				// Mark neighbours: read-modify-write of mask words
				// other SMs are concurrently reading and writing.
				n1 := next.rand(b.rng)
				b.load(n1)
				b.store(1, n1)
			}
			b.atomic(ctr.rand(b.rng), 1) // level count
			b.fence()
			b.barrier()
			mask, next = next, mask
		}
	})
}

// genCL models cloth simulation: each SM owns a band of particles; every
// iteration reads its band plus the neighbouring bands' boundary lines
// (written by other SMs the previous step) and writes its own band back.
func genCL(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	bandLines := uint64(256)
	// Double-buffered particle positions (read pos[t], write pos[t+1]).
	bandsA := make([]region, cfg.NumSMs)
	bandsB := make([]region, cfg.NumSMs)
	for i := range bandsA {
		bandsA[i] = a.region(bandLines)
		bandsB[i] = a.region(bandLines)
	}
	iters := scaled(cfg, 12)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		in, out := bandsA, bandsB
		for i := 0; i < iters; i++ {
			own := in[sm]
			left := in[(sm+cfg.NumSMs-1)%cfg.NumSMs]
			right := in[(sm+1)%cfg.NumSMs]
			b.load(own.rand(b.rng), own.rand(b.rng))
			b.load(left.line(left.n - 1 - uint64(warp)%4)) // neighbour boundary
			b.load(right.line(uint64(warp) % 4))
			b.compute(48)
			b.local(16)
			if b.rng.Bool(0.3) {
				// Boundary particles: the lines neighbours read.
				b.store(uint64(i), out[sm].line(uint64(warp)%4))
			} else {
				b.store(uint64(i), out[sm].rand(b.rng))
			}
			b.fence()
			b.barrier()
			in, out = out, in
		}
	})
}

// genDLB models dynamic load balancing: per-SM work queues managed with
// atomics and fences on every queue operation; stealing from a random
// remote queue is rare but must be fenced — the case where RCC beats TCW
// (fences are frequent, actual sharing is not).
func genDLB(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	queues := make([]region, cfg.NumSMs)
	for i := range queues {
		queues[i] = a.region(16)
	}
	items := a.region(8192)
	tasks := scaled(cfg, 14)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		own := queues[sm]
		for i := 0; i < tasks; i++ {
			steal := b.rng.Bool(0.06)
			q := own
			if steal {
				q = queues[b.rng.Intn(cfg.NumSMs)]
			}
			b.fence()
			b.load(q.line(0))      // check queue occupancy
			b.atomic(q.line(0), 1) // pop: bump head
			b.fence()
			b.load(q.rand(b.rng)) // read task descriptor
			b.loadDiv(items, 2)   // task payload
			b.compute(70)
			b.store(uint64(i), items.rand(b.rng))
			b.fence()
			b.load(own.line(1))                         // check own tail
			b.atomic(own.line(1), 1)                    // push result: bump tail
			b.store(uint64(i), own.line(2+uint64(i)%8)) // enqueue descriptor
			b.fence()
		}
	})
}

// genSTN models a stencil solver synchronized with fast software barriers:
// tile reads with halo lines owned by other SMs, tile writes, then a
// flag-based inter-block barrier (store own flag, read neighbours').
func genSTN(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	tileLines := uint64(192)
	// Double-buffered grid (read t, write t+1); halos still cross SMs.
	tilesA := make([]region, cfg.NumSMs)
	tilesB := make([]region, cfg.NumSMs)
	for i := range tilesA {
		tilesA[i] = a.region(tileLines)
		tilesB[i] = a.region(tileLines)
	}
	flags := a.region(uint64(cfg.NumSMs))
	iters := scaled(cfg, 10)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		in, out := tilesA, tilesB
		for i := 0; i < iters; i++ {
			own := in[sm]
			up := in[(sm+cfg.NumSMs-1)%cfg.NumSMs]
			down := in[(sm+1)%cfg.NumSMs]
			b.load(own.rand(b.rng), own.rand(b.rng), own.rand(b.rng))
			b.load(up.line(up.n - 1)) // halo
			b.load(down.line(0))      // halo
			b.compute(40)
			// Alternate interior and boundary writes: boundary lines
			// are exactly the halo the neighbour SMs read next step.
			if i%2 == 0 {
				b.store(uint64(i), out[sm].line(uint64(warp)%2*(out[sm].n-1)))
			} else {
				b.store(uint64(i), out[sm].rand(b.rng))
			}
			b.fence()
			if warp == 0 {
				// Fast barrier: publish own flag, read the others.
				b.store(uint64(i+1), flags.line(uint64(sm)))
				b.fence()
				b.load(flags.line(uint64((sm + 1) % cfg.NumSMs)))
				b.load(flags.line(uint64((sm + 2) % cfg.NumSMs)))
			}
			b.barrier()
			in, out = out, in
		}
	})
}

// genVPR models place & route: random reads over a large shared grid plus
// lock-protected read-modify-write transactions on grid cells.
func genVPR(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	grid := a.region(8192)
	locks := a.region(256)
	moves := scaled(cfg, 9)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		for i := 0; i < moves; i++ {
			// Evaluate a candidate move: scattered reads.
			b.loadDiv(grid, 3)
			b.loadDiv(grid, 2)
			b.compute(80)
			if b.rng.Bool(0.7) {
				// Commit under a lock (test-and-test-and-set), then
				// read-modify-write the protected grid cells.
				lock := locks.rand(b.rng)
				b.load(lock)
				b.atomic(lock, 1) // acquire
				b.fence()
				g1, g2 := grid.rand(b.rng), grid.rand(b.rng)
				b.load(g1)
				b.store(uint64(i), g1)
				b.load(g2)
				b.store(uint64(i), g2)
				b.fence()
				b.atomic(lock, 1) // release
				b.fence()
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Intra-workgroup benchmarks (sharing only within an SM; they run
// correctly without coherence and quantify always-on coherence overhead).
// ---------------------------------------------------------------------------

// genHSP models hotspot: per-SM private tiles, stencil reads, one write,
// per-iteration block barrier. Tile dimensions match cache lines (the
// paper altered hsp the same way to avoid false sharing).
func genHSP(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	// temp_in / temp_out double buffering, as in the Rodinia kernel.
	tilesA := make([]region, cfg.NumSMs)
	tilesB := make([]region, cfg.NumSMs)
	for i := range tilesA {
		tilesA[i] = a.region(768)
		tilesB[i] = a.region(768)
	}
	iters := scaled(cfg, 10)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		inT, outT := tilesA, tilesB
		stride := uint64(cfg.WarpsPerSM)
		for i := 0; i < iters; i++ {
			// Stage a fresh row of the tile into scratchpad, compute
			// there, write the result row out: global lines stream.
			own := inT[sm]
			idx := uint64(warp) + uint64(i)*stride
			b.load(own.line(idx), own.line(idx+1))
			b.local(20) // stage into scratchpad
			b.compute(140)
			b.local(12)
			b.store(uint64(i), outT[sm].line(idx))
			b.barrier()
			inT, outT = outT, inT
		}
	})
}

// genKMN models k-means: streaming reads of a large read-only point set
// shared by every SM (exercises long leases / no invalidations), local
// accumulation, and small per-SM writes.
func genKMN(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	points := a.region(32768) // read-only shared
	cents := a.region(64)     // read-only per iteration
	out := make([]region, cfg.NumSMs)
	for i := range out {
		out[i] = a.region(64)
	}
	iters := scaled(cfg, 16)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		stride := uint64(cfg.NumSMs * cfg.WarpsPerSM)
		start := uint64(sm*cfg.WarpsPerSM + warp)
		for i := 0; i < iters; i++ {
			b.load(points.line(start + uint64(i)*stride))
			b.load(points.line(start + uint64(i)*stride + stride/2))
			b.load(cents.rand(b.rng))
			b.compute(110)
			b.local(10)
			if i%4 == 3 {
				b.store(uint64(i), out[sm].rand(b.rng))
			}
		}
		// Flush the locally accumulated partial centroids.
		b.store(uint64(warp), out[sm].line(uint64(warp)))
		b.barrier()
	})
}

// genLPS models a 3D Laplace solver: structured private accesses with
// heavier compute and scratchpad staging.
func genLPS(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	// Jacobi-style double buffering.
	volsA := make([]region, cfg.NumSMs)
	volsB := make([]region, cfg.NumSMs)
	for i := range volsA {
		volsA[i] = a.region(768)
		volsB[i] = a.region(768)
	}
	iters := scaled(cfg, 10)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		inV, outV := volsA, volsB
		stride := uint64(cfg.WarpsPerSM)
		for i := 0; i < iters; i++ {
			// One z-plane per step, staged through scratchpad.
			own := inV[sm]
			idx := uint64(warp) + uint64(i)*stride
			b.load(own.line(idx), own.line(idx+1))
			b.local(14)
			b.compute(160)
			b.store(uint64(i), outV[sm].line(idx))
			b.barrier()
			inV, outV = outV, inV
		}
	})
}

// genNDL models Needleman-Wunsch: a wavefront over per-SM tiles with tight
// barrier-separated dependency steps.
func genNDL(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	tiles := make([]region, cfg.NumSMs)
	for i := range tiles {
		tiles[i] = a.region(4096)
	}
	steps := scaled(cfg, 18)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		own := tiles[sm]
		stride := uint64(cfg.WarpsPerSM) * 3
		for s := 0; s < steps; s++ {
			// The previous anti-diagonal is staged in scratchpad; the
			// global traffic is the fresh diagonal itself.
			diag := uint64(s)*stride + uint64(warp)*3
			b.load(own.line(diag), own.line(diag+1))
			b.local(16)
			b.compute(90)
			b.store(uint64(s), own.line(diag+2))
			b.barrier()
		}
	})
}

// genSR models speckle-reducing diffusion: pure streaming over a large
// private image (L1/L2 thrash, DRAM bandwidth bound).
func genSR(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	// Streaming: read the input image, write coefficients to a separate
	// output array (as in the Rodinia srad kernels).
	imgs := make([]region, cfg.NumSMs)
	outs := make([]region, cfg.NumSMs)
	for i := range imgs {
		imgs[i] = a.region(1536)
		outs[i] = a.region(1536)
	}
	iters := scaled(cfg, 14)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		own := imgs[sm]
		out := outs[sm]
		stride := uint64(cfg.WarpsPerSM)
		for i := 0; i < iters; i++ {
			idx := uint64(warp) + uint64(i)*stride
			b.load(own.line(idx), own.line(idx+stride))
			b.load(own.line(idx + 2*stride))
			b.compute(100)
			b.store(uint64(i), out.line(idx), out.line(idx+stride))
		}
		b.barrier()
	})
}

// genLUD models LU decomposition: compute-heavy per-block tiles with
// barrier-separated phases and scratchpad staging.
func genLUD(cfg config.Config, rng *timing.RNG) *Program {
	var a alloc
	mats := make([]region, cfg.NumSMs)
	for i := range mats {
		mats[i] = a.region(1024)
	}
	phases := scaled(cfg, 8)
	return build(cfg, rng, func(b *tb, sm, warp int) {
		own := mats[sm]
		stride := uint64(cfg.WarpsPerSM)
		for p := 0; p < phases; p++ {
			// Each phase factors a fresh tile; the pivot row lives in
			// scratchpad for the whole phase.
			off := uint64(p) * stride
			b.load(own.line(off + uint64(warp)))
			b.local(18)
			b.compute(90)
			b.load(own.line(off + uint64(warp) + stride/2))
			b.compute(90)
			b.store(uint64(p), own.line(off+uint64(warp)))
			b.barrier()
		}
	})
}
