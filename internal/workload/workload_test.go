package workload

import (
	"testing"

	"rccsim/internal/config"
)

func TestAllBenchmarksListed(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("Table IV has 12 benchmarks, got %d", len(all))
	}
	if len(Inter()) != 6 || len(Intra()) != 6 {
		t.Fatalf("expected 6 inter + 6 intra, got %d + %d", len(Inter()), len(Intra()))
	}
	names := map[string]bool{}
	for _, b := range all {
		if b.Name == "" || names[b.Name] {
			t.Fatalf("bad or duplicate name %q", b.Name)
		}
		names[b.Name] = true
		if b.Gen == nil || b.Desc == "" {
			t.Fatalf("%s incomplete", b.Name)
		}
	}
	for _, want := range []string{"BH", "BFS", "CL", "DLB", "STN", "VPR", "HSP", "KMN", "LPS", "NDL", "SR", "LUD"} {
		if !names[want] {
			t.Fatalf("missing paper benchmark %s", want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("BFS"); !ok {
		t.Fatal("BFS not found")
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("bogus benchmark found")
	}
}

func TestGenerationDeterministic(t *testing.T) {
	cfg := config.Small()
	for _, b := range All() {
		p1 := b.Generate(cfg)
		p2 := b.Generate(cfg)
		if p1.Count() != p2.Count() {
			t.Fatalf("%s: nondeterministic counts", b.Name)
		}
		for sm := range p1.SMs {
			for w := range p1.SMs[sm] {
				t1, t2 := p1.SMs[sm][w], p2.SMs[sm][w]
				if len(t1) != len(t2) {
					t.Fatalf("%s: trace lengths differ", b.Name)
				}
				for i := range t1 {
					if t1[i].Op != t2[i].Op || t1[i].Val != t2[i].Val || t1[i].N != t2[i].N {
						t.Fatalf("%s: instr %d differs", b.Name, i)
					}
					for j := 0; j < int(t1[i].N); j++ {
						if p1.Pool.Line(&t1[i], j) != p2.Pool.Line(&t2[i], j) {
							t.Fatalf("%s: line address differs", b.Name)
						}
					}
				}
			}
		}
	}
}

func TestSeedChangesTraces(t *testing.T) {
	cfg := config.Small()
	b, _ := ByName("VPR")
	p1 := b.Generate(cfg)
	cfg.Seed = 2
	p2 := b.Generate(cfg)
	same := true
	for sm := range p1.SMs {
		for w := range p1.SMs[sm] {
			t1, t2 := p1.SMs[sm][w], p2.SMs[sm][w]
			if len(t1) != len(t2) {
				same = false
				continue
			}
			for i := range t1 {
				if t1[i].N > 0 && t2[i].N > 0 && p1.Pool.Line(&t1[i], 0) != p2.Pool.Line(&t2[i], 0) {
					same = false
				}
			}
		}
	}
	if same {
		t.Fatal("seed had no effect on generated traces")
	}
}

func TestProgramShapeMatchesConfig(t *testing.T) {
	cfg := config.Small()
	for _, b := range All() {
		p := b.Generate(cfg)
		if len(p.SMs) != cfg.NumSMs {
			t.Fatalf("%s: %d SMs, want %d", b.Name, len(p.SMs), cfg.NumSMs)
		}
		for sm := range p.SMs {
			if len(p.SMs[sm]) != cfg.WarpsPerSM {
				t.Fatalf("%s: SM %d has %d warps", b.Name, sm, len(p.SMs[sm]))
			}
		}
	}
}

// TestBarriersMatchedPerSM: every warp of an SM must contain the same
// number of barriers, or barrier release would deadlock.
func TestBarriersMatchedPerSM(t *testing.T) {
	cfg := config.Small()
	for _, b := range All() {
		p := b.Generate(cfg)
		for sm := range p.SMs {
			want := -1
			for w, tr := range p.SMs[sm] {
				n := 0
				for _, in := range tr {
					if in.Op == OpBarrier {
						n++
					}
				}
				if want == -1 {
					want = n
				} else if n != want {
					t.Fatalf("%s: SM %d warp %d has %d barriers, want %d", b.Name, sm, w, n, want)
				}
			}
		}
	}
}

// TestInterBenchmarksShareAcrossSMs: an inter-workgroup benchmark must
// have at least one line written by one SM and read by another.
func TestInterBenchmarksShareAcrossSMs(t *testing.T) {
	cfg := config.Small()
	cfg.Scale = 0.5 // enough iterations for double-buffered kernels to swap
	for _, b := range All() {
		p := b.Generate(cfg)
		readers := map[uint64]map[int]bool{}
		writers := map[uint64]map[int]bool{}
		for sm := range p.SMs {
			for _, tr := range p.SMs[sm] {
				for i := range tr {
					in := &tr[i]
					for j := 0; j < int(in.N); j++ {
						l := p.Pool.Line(in, j)
						switch in.Op {
						case OpLoad:
							if readers[l] == nil {
								readers[l] = map[int]bool{}
							}
							readers[l][sm] = true
						case OpStore, OpAtomic:
							if writers[l] == nil {
								writers[l] = map[int]bool{}
							}
							writers[l][sm] = true
						}
					}
				}
			}
		}
		crossRW := false
		for l, ws := range writers {
			for w := range ws {
				for r := range readers[l] {
					if r != w {
						crossRW = true
					}
				}
			}
		}
		if b.Inter && !crossRW {
			t.Errorf("%s marked inter-workgroup but has no cross-SM read-write sharing", b.Name)
		}
		if !b.Inter && crossRW {
			// Intra benchmarks may share read-only data across SMs, but
			// must not have cross-SM writes that others read.
			t.Errorf("%s marked intra-workgroup but has cross-SM read-write sharing", b.Name)
		}
	}
}

func TestScaleChangesLength(t *testing.T) {
	small := config.Small()
	big := small
	big.Scale = small.Scale * 4
	for _, b := range All() {
		c1 := b.Generate(small).Count()
		c2 := b.Generate(big).Count()
		if c2.Instrs <= c1.Instrs {
			t.Errorf("%s: scale x4 did not grow traces (%d -> %d)", b.Name, c1.Instrs, c2.Instrs)
		}
	}
}

func TestOpKindStrings(t *testing.T) {
	kinds := []OpKind{OpCompute, OpLocal, OpLoad, OpStore, OpAtomic, OpFence, OpBarrier}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || seen[s] {
			t.Fatalf("bad OpKind string %q", s)
		}
		seen[s] = true
	}
	if !OpLoad.IsGlobal() || !OpStore.IsGlobal() || !OpAtomic.IsGlobal() {
		t.Fatal("IsGlobal broken")
	}
	if OpCompute.IsGlobal() || OpFence.IsGlobal() || OpLocal.IsGlobal() {
		t.Fatal("IsGlobal false positives")
	}
}

func TestCountTallies(t *testing.T) {
	p := &Program{}
	p.SMs = [][]Trace{{
		{
			p.Access(OpLoad, 0, 1),
			p.Access(OpStore, 0, 2),
			p.Access(OpAtomic, 0, 3),
			{Op: OpFence},
			{Op: OpBarrier},
			{Op: OpLocal},
			{Op: OpCompute},
		},
	}}
	c := p.Count()
	if c.Instrs != 7 || c.Loads != 1 || c.Stores != 1 || c.Atomics != 1 ||
		c.Fences != 1 || c.Barriers != 1 || c.Locals != 1 || c.Computes != 1 {
		t.Fatalf("counts wrong: %+v", c)
	}
}
