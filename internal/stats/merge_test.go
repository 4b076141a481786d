package stats

import (
	"reflect"
	"testing"
)

// fillDistinct sets every unsigned-integer leaf reachable from v to a
// distinct non-zero value, recursing through structs, arrays and slices.
func fillDistinct(v reflect.Value, c *uint64) {
	switch v.Kind() {
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		*c++
		v.SetUint(*c)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillDistinct(v.Field(i), c)
		}
	case reflect.Array, reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			fillDistinct(v.Index(i), c)
		}
	}
}

// TestMergeCoversEveryField is the tripwire behind every aggregate built
// with Merge: every counter in Run must transfer through Merge. It
// fills the source with distinct non-zero values via reflection and merges
// into a fresh Run; any field Merge forgot stays zero and fails the
// comparison. Cycles is the single deliberate exception — it is machine
// time, set once by the run loop, not an accumulator. Adding a field to
// Run without extending Merge (or this exception list) fails this test
// instead of silently dropping a run's counts.
func TestMergeCoversEveryField(t *testing.T) {
	src := New()
	var c uint64
	fillDistinct(reflect.ValueOf(src).Elem(), &c)
	if c == 0 {
		t.Fatal("reflection walk found no counters to fill")
	}

	dst := New()
	dst.Merge(src)

	want := *src
	want.Cycles = 0
	if !reflect.DeepEqual(*dst, want) {
		t.Errorf("Merge into a zero Run did not reproduce the source (minus Cycles):\n got  %+v\n want %+v", *dst, want)
	}

	// Merging twice must double every summed counter — and a max-tracking
	// field must NOT double, which guards against a max being merged as a
	// sum. Spot-check one of each.
	dst.Merge(src)
	if dst.Instructions != 2*src.Instructions {
		t.Errorf("Instructions merged twice: got %d, want %d", dst.Instructions, 2*src.Instructions)
	}
	for i := range dst.Latency {
		if dst.Latency[i].Max != src.Latency[i].Max {
			t.Errorf("Latency[%d].Max after double merge: got %d, want %d (max must not accumulate)",
				i, dst.Latency[i].Max, src.Latency[i].Max)
		}
		if dst.LatencyHist[i].Max != src.LatencyHist[i].Max {
			t.Errorf("LatencyHist[%d].Max after double merge: got %d, want %d (max must not accumulate)",
				i, dst.LatencyHist[i].Max, src.LatencyHist[i].Max)
		}
	}
}
