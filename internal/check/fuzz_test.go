package check

import (
	"encoding/json"
	"testing"

	"rccsim/internal/config"
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

// FuzzReproOptions feeds arbitrary bytes through a repro's options decode:
// JSON into a Repro, then Options. Bad input must come back as an error,
// never a panic, and options Options accepts must be bounded: 1 to 2^16
// runs of at least one SC protocol, jitter within maxDelay. The seed
// corpus lives in testdata/fuzz/FuzzReproOptions.
func FuzzReproOptions(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var r Repro
		if err := json.Unmarshal(data, &r); err != nil {
			return
		}
		opts, err := r.Options()
		if err != nil {
			return
		}
		if opts.RunSeeds < 1 || opts.RunSeeds > maxRunSeeds || opts.Jitter > maxDelay || len(opts.Protocols) == 0 {
			t.Fatalf("accepted unbounded options: %d runs, jitter %d, %d protocols", opts.RunSeeds, opts.Jitter, len(opts.Protocols))
		}
		for _, p := range opts.Protocols {
			if p.Consistency() != config.SC {
				t.Fatalf("accepted %s, which does not claim SC", p)
			}
		}
	})
}
