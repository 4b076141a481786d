package sc

import (
	"testing"

	"rccsim/internal/workload"
)

func TestMessagePassingOutcomes(t *testing.T) {
	out := SCOutcomes(MessagePassing())
	// Loads: (done, data). SC allows 0,0 / 0,1 / 1,1 — never 1,0.
	want := map[Outcome]bool{"0,0": true, "0,1": true, "1,1": true}
	if len(out) != len(want) {
		t.Fatalf("outcomes = %v", out)
	}
	for o := range want {
		if !out[o] {
			t.Fatalf("missing outcome %q", o)
		}
	}
	if out["1,0"] {
		t.Fatal("SC must forbid done=1,data=0")
	}
}

func TestStoreBufferingOutcomes(t *testing.T) {
	out := SCOutcomes(StoreBuffering())
	if out["0,0"] {
		t.Fatal("SC must forbid r1=0,r2=0 in SB")
	}
	for _, o := range []Outcome{"1,0", "0,1", "1,1"} {
		if !out[o] {
			t.Fatalf("missing SC outcome %q", o)
		}
	}
}

func TestLoadBufferingOutcomes(t *testing.T) {
	out := SCOutcomes(LoadBuffering())
	if out["1,1"] {
		t.Fatal("SC must forbid r1=1,r2=1 in LB")
	}
}

func TestCoRROutcomes(t *testing.T) {
	out := SCOutcomes(CoRR())
	if out["1,0"] {
		t.Fatal("coherence must forbid new-then-old reads")
	}
	for _, o := range []Outcome{"0,0", "0,1", "1,1"} {
		if !out[o] {
			t.Fatalf("missing outcome %q", o)
		}
	}
}

func TestIRIWOutcomes(t *testing.T) {
	out := SCOutcomes(IRIW())
	// Readers must agree on the write order: (1,0) and (1,0) means
	// thread 3 saw X before Y and thread 4 saw Y before X.
	if out["1,0,1,0"] {
		t.Fatal("SC must forbid the IRIW disagreement outcome")
	}
	if !out["1,1,1,1"] || !out["0,0,0,0"] {
		t.Fatal("missing trivially-SC outcomes")
	}
}

func TestTraceConversion(t *testing.T) {
	var p workload.Program
	tr := Trace(&p, MessagePassing().Threads[0], 100)
	if len(tr) != 2 {
		t.Fatalf("trace len = %d", len(tr))
	}
	if tr[0].Op != workload.OpStore || p.Pool.Line(&tr[0], 0) != 100 || tr[0].Val != 1 {
		t.Fatalf("store mis-translated: %+v", tr[0])
	}
	if tr[1].Op != workload.OpStore || p.Pool.Line(&tr[1], 0) != 101 {
		t.Fatalf("second store mis-translated: %+v", tr[1])
	}
}

func TestRecorderOrdering(t *testing.T) {
	r := NewRecorder(8)
	r.LoadObserved(0, 1, 0, 5, 10)
	r.LoadObserved(0, 1, 1, 6, 20)
	r.LoadObserved(1, 0, 0, 7, 30)
	out := r.OutcomeFor([][2]int{{0, 1}, {1, 0}})
	if out != "10,20,30" {
		t.Fatalf("outcome = %q", out)
	}
	if len(r.Keys()) != 2 {
		t.Fatalf("keys = %v", r.Keys())
	}
}

func TestAllLitmusNamed(t *testing.T) {
	seen := map[string]bool{}
	for _, l := range AllLitmus() {
		if l.Name == "" || seen[l.Name] {
			t.Fatalf("bad litmus name %q", l.Name)
		}
		seen[l.Name] = true
		if len(SCOutcomes(l)) == 0 {
			t.Fatalf("%s has no outcomes", l.Name)
		}
	}
}

func TestWRCOutcomes(t *testing.T) {
	out := SCOutcomes(WRC())
	// Loads: (r1=X@T1, r2=Y@T2, r3=X@T2). Causality: r2=1 implies T1 saw
	// X... only when r1=1; SC forbids r1=1, r2=1, r3=0.
	if out["1,1,0"] {
		t.Fatal("SC must forbid the WRC causality violation")
	}
	for _, o := range []Outcome{"0,0,0", "1,1,1", "1,0,0"} {
		if !out[o] {
			t.Fatalf("missing SC outcome %q", o)
		}
	}
}

func TestCoWROutcomes(t *testing.T) {
	out := SCOutcomes(CoWR())
	// The reader just wrote 1; it may see 1 or the remote 2, never 0.
	if out["0"] {
		t.Fatal("CoWR must never read the initial value")
	}
	if !out["1"] || !out["2"] {
		t.Fatalf("missing outcomes: %v", out)
	}
}

func TestTwoPlusTwoWOutcomes(t *testing.T) {
	out := SCOutcomes(TwoPlusTwoW())
	if len(out) == 0 {
		t.Fatal("no outcomes")
	}
	// Each thread's trailing read sees SOME write to its location, never 0.
	for o := range out {
		if o[0] == '0' {
			t.Fatalf("X read as 0 in %q", o)
		}
	}
}
