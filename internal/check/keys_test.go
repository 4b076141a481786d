package check

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"rccsim/internal/workload"
)

// feed makes rec observe thread ti's operation op reading val from
// program line, as the machine reports it: warp placement, trace pc op+1
// and machine line Base+line.
func feed(p *Prog, rec *recorder, ti, op int, line, val uint64) {
	th := p.Threads[ti]
	rec.LoadObserved(th.SM, th.Warp, op+1, Base+line, val)
}

// TestObsShapeDeterministic: when several positions mismatch, the shape
// failure names the first in program order, the same one on every call
// (ranging over a map of positions would pick one at random). Missing
// positions come before unexpected ones.
func TestObsShapeDeterministic(t *testing.T) {
	p := LeaseWitnessProg() // T1 loads lines 0, 1, 0 at ops 0, 1, 2
	_, warps := p.MachineShape()
	const want = "observation T1#0@0 seen 0 times, want 1"
	for i := 0; i < 50; i++ {
		rec := newRecorder(p, warps)
		feed(p, rec, 1, 1, 1, 2) // T1#0@0 and T1#2@0 never observed
		if got := rec.shapeError(); got != want {
			t.Fatalf("call %d: shape detail %q, want %q", i, got, want)
		}
	}

	rec := newRecorder(p, warps)
	for _, o := range [][3]int{{1, 2, 0}, {1, 1, 1}, {1, 0, 0}, {0, 1, 1}, {0, 0, 0}, {0, 0, 0}} {
		feed(p, rec, o[0], o[1], uint64(o[2]), 7)
	}
	if got, want := rec.shapeError(), "unexpected observation position T0#0@0 (seen 2 times)"; got != want {
		t.Fatalf("shape detail %q, want %q", got, want)
	}
	rec.reset()
	for _, o := range [][3]int{{1, 2, 0}, {1, 1, 1}, {1, 0, 0}} {
		feed(p, rec, o[0], o[1], uint64(o[2]), 0)
	}
	if got := rec.shapeError(); got != "" {
		t.Fatalf("well-shaped run reported %q", got)
	}
	if got, want := rec.text(), "T1#0@0=0;T1#1@1=0;T1#2@0=0"; got != want {
		t.Fatalf("outcome text %q, want %q", got, want)
	}
	rec.LoadObserved(3, 0, 1, Base, 0) // no thread on SM 3
	if got := rec.shapeError(); !strings.HasPrefix(got, "observations outside the program: sm=3 warp=0") {
		t.Fatalf("stray warp reported as %q", got)
	}
}

// TestKeyTextMatchesFormat pins ObsKey and memKey to the text the fmt
// package rendered them as, which SC sets and failure reports compare.
func TestKeyTextMatchesFormat(t *testing.T) {
	vals := []uint64{0, 1, 9, 10, 12345, math.MaxUint32, math.MaxUint64}
	for _, ti := range []int{0, 3, 10, 255} {
		for _, v := range vals {
			if got, want := ObsKey(ti, ti+1, v/3, v), fmt.Sprintf("T%d#%d@%d=%d", ti, ti+1, v/3, v); got != want {
				t.Fatalf("ObsKey = %q, want %q", got, want)
			}
		}
	}
	for n := 0; n <= len(vals); n++ {
		parts := make([]string, n)
		for i, v := range vals[:n] {
			parts[i] = fmt.Sprintf("%d", v)
		}
		if got, want := memKey(vals[:n]), strings.Join(parts, ","); got != want {
			t.Fatalf("memKey = %q, want %q", got, want)
		}
	}
}

// serializeProgFmt is serializeProg as the fmt package rendered it.
func serializeProgFmt(p *Prog) string {
	idx := make([]int, len(p.Threads))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		ta, tb := p.Threads[idx[a]], p.Threads[idx[b]]
		if ta.SM != tb.SM {
			return ta.SM < tb.SM
		}
		return ta.Warp < tb.Warp
	})
	ren := map[uint64]int{}
	var b strings.Builder
	for _, ti := range idx {
		th := p.Threads[ti]
		fmt.Fprintf(&b, "T%d.%d:", th.SM, th.Warp)
		for _, op := range th.Ops {
			lines := append([]uint64(nil), op.Lines...)
			sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
			switch op.Kind {
			case workload.OpLoad:
				fmt.Fprintf(&b, "L%v", lines)
			case workload.OpStore, workload.OpAtomic:
				if _, ok := ren[op.Val]; !ok {
					ren[op.Val] = len(ren) + 1
				}
				k := "S"
				if op.Kind == workload.OpAtomic {
					k = "A"
				}
				fmt.Fprintf(&b, "%s%v=%d", k, lines, ren[op.Val])
			case workload.OpBarrier:
				b.WriteString("B")
			case workload.OpFence:
				b.WriteString("F")
			case workload.OpCompute:
				fmt.Fprintf(&b, "C%d", op.Lat)
			}
			b.WriteByte(';')
		}
		b.WriteByte('|')
	}
	return b.String()
}

// TestSerializeProgMatchesFormat pins serializeProg's text, which decides
// the canonical member of each program orbit and so which programs a
// family holds, to its fmt rendering: on every candidate of two family
// shapes (each program and its symmetry images) and on generated
// programs with barriers, fences, computes, atomics and divergent lines.
func TestSerializeProgMatchesFormat(t *testing.T) {
	check := func(p *Prog) {
		t.Helper()
		if got, want := serializeProg(p), serializeProgFmt(p); got != want {
			t.Fatalf("serializeProg = %q, want %q", got, want)
		}
	}
	for _, s := range []FamilyShape{
		{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2, Atomics: true},
		{SMs: 3, WarpsPerSM: 1, OpsPerThread: 1, Lines: 3},
	} {
		for _, p := range EnumFamily(s) {
			sms, lines := symShape(p)
			for _, sp := range permutations(sms) {
				for _, lp := range permutations(lines) {
					check(refApplySym(p, sp, lp))
				}
			}
		}
	}
	gen := DefaultGenConfig()
	for seed := uint64(0); seed < 200; seed++ {
		check(Generate(seed, gen))
	}
}
