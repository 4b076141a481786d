package check

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"rccsim/internal/config"
)

// mcReplay is one run's comparable record: the outcome fields plus the
// failure text.
type mcReplay struct {
	taken    []uint8
	prunedAt int
	fps      []mcFP
	fail     string
	outcome  string
	memk     string
}

func snapshotOutcome(out *mcRunOutcome) mcReplay {
	r := mcReplay{
		taken:    append([]uint8(nil), out.taken...),
		prunedAt: out.prunedAt,
		fps:      append([]mcFP(nil), out.fps...),
		outcome:  out.outcome,
		memk:     out.memk,
	}
	if out.fail != nil {
		r.fail = fmt.Sprint(out.fail)
	}
	return r
}

// TestMCResetMatchesFresh replays every branch of a deterministic subset
// of the pinned 72-program family twice, in lockstep: once on the
// driver's one reused machine, reset between replays, and once on a
// machine built by sim.New for that replay alone. Every decision's state
// fingerprint, the pruning point and the terminal verdict, outcome and
// final memory must agree, under MESI, TCS and RCC. The graph is on so
// that runOne fingerprints every decision and terminal, not only the
// fresh decisions it can prune at.
func TestMCResetMatchesFresh(t *testing.T) {
	fam := EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2})
	stride := 9 // 8 programs
	if testing.Short() {
		stride = 24 // 3 programs
	}
	for _, proto := range []config.Protocol{config.MESI, config.TCS, config.RCC} {
		for pi := 0; pi < len(fam); pi += stride {
			p := fam[pi]
			opts := DefaultMCOptions()
			opts.Protocol = proto
			opts.Graph = true
			reused, err := newMCDriver(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := newMCDriver(p, opts)
			if err != nil {
				t.Fatal(err)
			}
			runs := 0
			delayVec := make([]uint8, len(p.Threads))
			for {
				delays := make([]uint32, len(delayVec))
				for i, c := range delayVec {
					delays[i] = opts.DelayMenu[c]
				}
				wl, err := p.WorkloadDelays(reused.cfg, delays)
				if err != nil {
					t.Fatal(err)
				}
				stack := [][]uint8{{}}
				for len(stack) > 0 {
					prefix := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					out, err := reused.runOne(wl, prefix)
					if err != nil {
						t.Fatal(err)
					}
					got := snapshotOutcome(out)
					fresh.m = nil // build this replay's machine from scratch
					out, err = fresh.runOne(wl, prefix)
					if err != nil {
						t.Fatal(err)
					}
					want := snapshotOutcome(out)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%v prog %d delays %v prefix %v: reset machine diverges from a fresh one:\n reset %+v\n fresh %+v",
							proto, pi, delays, prefix, got, want)
					}
					runs++
					limit := len(got.taken)
					if got.prunedAt >= 0 {
						limit = got.prunedAt
					}
					for i := limit - 1; i >= len(prefix); i-- {
						for alt := len(opts.JitterMenu) - 1; alt >= 1; alt-- {
							sib := append(append([]uint8(nil), got.taken[:i]...), uint8(alt))
							stack = append(stack, sib)
						}
					}
				}
				i := len(delayVec) - 1
				for ; i >= 0; i-- {
					if delayVec[i]++; int(delayVec[i]) < len(opts.DelayMenu) {
						break
					}
					delayVec[i] = 0
				}
				if i < 0 {
					break
				}
			}
			if runs == 0 {
				t.Fatalf("%v prog %d: no replays", proto, pi)
			}
		}
	}
}

// TestMCReplayAllocBudget bounds what one replay allocates once the
// driver's machine exists: Reset plus a full run, fingerprints included.
// Building a machine per replay cost about 97 KB; a reset replay must
// stay far below that.
func TestMCReplayAllocBudget(t *testing.T) {
	const replays = 200
	const budget = 2 << 10 // bytes per replay
	p := LeaseWitnessProg()
	for _, proto := range []config.Protocol{config.MESI, config.TCS, config.RCC} {
		opts := DefaultMCOptions()
		opts.Protocol = proto
		opts.Graph = false
		d, err := newMCDriver(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		wl, err := p.WorkloadDelays(d.cfg, make([]uint32, len(p.Threads)))
		if err != nil {
			t.Fatal(err)
		}
		prefix := []uint8{1, 0, 1}
		replay := func() {
			if _, err := d.runOne(wl, prefix); err != nil {
				t.Fatal(err)
			}
			clear(d.visited) // keep the visited set from growing across replays
		}
		replay() // build the machine and size its pools
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < replays; i++ {
			replay()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / replays
		t.Logf("%v: Reset plus one replay allocates %d B", proto, per)
		if per > budget {
			t.Errorf("%v: Reset plus one replay allocates %d B, budget %d B", proto, per, budget)
		}
	}
}
