package scenario

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rccsim/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// runWalkthrough executes the Fig. 3 scenario capturing the narrative,
// the JSONL event stream, and the legible message rendering.
func runWalkthrough(t *testing.T) (narrative, jsonl, text []byte, msgs int) {
	t.Helper()
	var out, jl, tx bytes.Buffer
	textSink := trace.NewTextSink(&tx, 2)
	inv := trace.NewInvariantSink(nil)
	bus := trace.NewBus(trace.NewJSONLSink(&jl), textSink, inv)
	msgs, err := Walkthrough(&out, 10, trace.Observers{Tr: bus})
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Close(); err != nil {
		t.Fatalf("trace invariants: %v", err)
	}
	if textSink.Count() != msgs {
		t.Fatalf("TextSink rendered %d messages, walkthrough counted %d", textSink.Count(), msgs)
	}
	return out.Bytes(), jl.Bytes(), tx.Bytes(), msgs
}

// TestWalkthroughGolden pins the full JSONL event stream of the Fig. 3
// scenario against a checked-in golden file (refresh with go test -update).
func TestWalkthroughGolden(t *testing.T) {
	_, got, _, _ := runWalkthrough(t)
	golden := filepath.Join("testdata", "walkthrough.jsonl")
	if *update {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run go test -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("trace diverges from golden at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace length differs from golden: got %d lines, want %d", len(gl), len(wl))
	}
}

// TestWalkthroughDeterminism runs the scenario twice and requires byte-
// identical narrative and trace output.
func TestWalkthroughDeterminism(t *testing.T) {
	n1, j1, t1, m1 := runWalkthrough(t)
	n2, j2, t2, m2 := runWalkthrough(t)
	if !bytes.Equal(n1, n2) || !bytes.Equal(j1, j2) || !bytes.Equal(t1, t2) || m1 != m2 {
		t.Fatal("walkthrough output differs between identical runs")
	}
}

// TestWalkthroughOutcome spot-checks the SC punchline: C1's final load of
// A returns the old value 100 (not 200) because its lease is still live —
// legal under SC, and the narrative must say so.
func TestWalkthroughOutcome(t *testing.T) {
	narrative, _, _, msgs := runWalkthrough(t)
	for _, want := range []string{
		"C1: LD A (hits stale lease - still SC!)",
		"-> value 100   (C0.now=52 C1.now=41)",
	} {
		if !bytes.Contains(narrative, []byte(want)) {
			t.Fatalf("narrative missing %q:\n%s", want, narrative)
		}
	}
	if msgs != 12 {
		t.Fatalf("scenario exchanged %d messages, want 12", msgs)
	}
}
