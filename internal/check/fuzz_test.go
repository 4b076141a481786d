package check

import (
	"encoding/json"
	"testing"
)

// FuzzProgJSON feeds arbitrary bytes through the repro decode path: JSON
// into a Prog, then WellFormed, then MachineShape. Bad input must come
// back as an error, never a panic, and a program WellFormed accepts must
// size a machine within the placement cap. The seed corpus lives in
// testdata/fuzz/FuzzProgJSON and runs with every plain go test.
func FuzzProgJSON(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Prog
		if err := json.Unmarshal(data, &p); err != nil {
			return
		}
		if err := p.WellFormed(); err != nil {
			return
		}
		if sms, warps := p.MachineShape(); sms > placeCap || warps > placeCap {
			t.Fatalf("well-formed program sizes a %dx%d machine, cap %d", sms, warps, placeCap)
		}
	})
}
