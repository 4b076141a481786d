package check

import (
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rccsim/internal/config"
)

// famRenaming maps a raw program's executions onto its family
// representative's: thread i of the raw program is thread thread[i] of
// the representative, line l is line line[l], and store value v is
// val[v].
type famRenaming struct {
	thread, line []int
	val          map[uint64]uint64
}

// renamingTo returns the first SM × line renaming, in permutation order,
// that takes q onto rep (both serialise alike), and false if none does.
func renamingTo(q, rep *Prog) (famRenaming, bool) {
	want := serializeProg(rep)
	sms, lines := symShape(q)
	for _, sp := range permutations(sms) {
		for _, lp := range permutations(lines) {
			if serializeProg(refApplySym(q, sp, lp)) != want {
				continue
			}
			r := famRenaming{line: lp, val: map[uint64]uint64{0: 0}}
			for _, th := range q.Threads {
				ri := -1
				for j, rt := range rep.Threads {
					if rt.SM == sp[th.SM] && rt.Warp == th.Warp {
						ri = j
					}
				}
				r.thread = append(r.thread, ri)
				for oi, op := range th.Ops {
					if op.Val != 0 {
						r.val[op.Val] = rep.Threads[ri].Ops[oi].Val
					}
				}
			}
			return r, true
		}
	}
	return famRenaming{}, false
}

// outcome renames an explored outcome key.
func (r famRenaming) outcome(t *testing.T, key string) string {
	if key == "" {
		return ""
	}
	var keys []string
	for _, e := range strings.Split(key, ";") {
		var ti, op int
		var line, val uint64
		if _, err := fmt.Sscanf(e, "T%d#%d@%d=%d", &ti, &op, &line, &val); err != nil {
			t.Fatalf("outcome entry %q: %v", e, err)
		}
		keys = append(keys, ObsKey(r.thread[ti], op, uint64(r.line[line]), r.val[val]))
	}
	return CanonOutcome(keys)
}

// mem renames an explored final-memory key.
func (r famRenaming) mem(t *testing.T, key string) string {
	parts := strings.Split(key, ",")
	mem := make([]uint64, len(parts))
	for l, s := range parts {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			t.Fatalf("memory key %q: %v", key, err)
		}
		mem[r.line[l]] = r.val[v]
	}
	return memKey(mem)
}

// famLoss counts what the family reduction loses under one protocol.
// Up: pairs a raw program reaches whose image its representative's
// explored set lacks, and the raw programs with any. Down: pairs a
// representative reaches that the image of a raw program mapped onto it
// misses, the raw programs with any, and their representatives.
type famLoss struct {
	upPairs, upProgs, downPairs, downProgs, downReps int
}

// TestFamilyReductionLoss pins what EnumFamily's reduction to one program
// per SM × line renaming costs on rcccheck's default family. Every raw
// program of the shape (256, against 72 representatives) is explored
// unreduced under MESI, TCS and RCC, and its outcome set is mapped
// through the renaming onto its representative's. Index-ordered
// arbitration makes the machine asymmetric, so the two sets differ on a
// few programs; the counts are pinned exactly. No raw program may give a
// violation or a truncation: the reduction can under-report coverage,
// but it must not change a verdict.
func TestFamilyReductionLoss(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("768 exhaustive explorations")
	}
	shape := FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2}
	fam := EnumFamily(shape)
	raw := refEnumCandidates(shape, func(*Prog) bool { return true })
	if len(raw) != 256 || len(fam) != 72 {
		t.Fatalf("%d raw programs and %d representatives, want 256 and 72", len(raw), len(fam))
	}
	// rep[i] is the family index of raw program i's representative, and
	// ren[i] maps onto it; representative fi is itself raw program
	// repRaw[fi].
	rep := make([]int, len(raw))
	ren := make([]famRenaming, len(raw))
	repRaw := make([]int, len(fam))
	for fi, f := range fam {
		repRaw[fi] = slices.IndexFunc(raw, func(p *Prog) bool { return reflect.DeepEqual(p, f) })
	}
	for i, q := range raw {
		rep[i] = -1
		for fi, f := range fam {
			if r, ok := renamingTo(q, f); ok {
				rep[i], ren[i] = fi, r
				break
			}
		}
		if rep[i] < 0 {
			t.Fatalf("raw program %d has no representative:\n%s", i, q)
		}
	}
	// The machine breaks the symmetry the same way under each protocol.
	loss := famLoss{upPairs: 2, upProgs: 2, downPairs: 8, downProgs: 8, downReps: 4}
	want := map[config.Protocol]famLoss{config.MESI: loss, config.TCS: loss, config.RCC: loss}
	for _, proto := range mcProtocols {
		explore := func(p *Prog) map[string]map[string]bool {
			res, err := ModelCheck(p, mcQuick(proto))
			if err != nil {
				t.Fatal(err)
			}
			if res.Failure != nil || res.Failures != 0 || res.Truncated {
				t.Fatalf("%v: %d violating runs, truncated %v, on\n%s%v", proto, res.Failures, res.Truncated, p, res.Failure)
			}
			return res.Outcomes
		}
		sets := make([]map[string]map[string]bool, len(raw))
		for i, q := range raw {
			sets[i] = explore(q)
		}
		var got famLoss
		downRep := map[int]bool{}
		for i := range raw {
			mapped := map[string]map[string]bool{}
			for out, mems := range sets[i] {
				o := ren[i].outcome(t, out)
				if mapped[o] == nil {
					mapped[o] = map[string]bool{}
				}
				for m := range mems {
					mapped[o][ren[i].mem(t, m)] = true
				}
			}
			repSet := sets[repRaw[rep[i]]]
			up, down := 0, 0
			for out, mems := range mapped {
				for m := range mems {
					if !repSet[out][m] {
						up++
					}
				}
			}
			for out, mems := range repSet {
				for m := range mems {
					if !mapped[out][m] {
						down++
					}
				}
			}
			if up > 0 {
				got.upPairs += up
				got.upProgs++
				t.Logf("%v: raw program %d reaches %d pairs that representative %d lacks", proto, i, up, rep[i])
			}
			if down > 0 {
				got.downPairs += down
				got.downProgs++
				downRep[rep[i]] = true
				t.Logf("%v: representative %d reaches %d pairs raw program %d misses", proto, rep[i], down, i)
			}
		}
		got.downReps = len(downRep)
		if got != want[proto] {
			t.Errorf("%v: family reduction loss %+v, want %+v", proto, got, want[proto])
		}
	}
}
