package check

import (
	"encoding/json"
	"fmt"
	"os"

	"rccsim/internal/config"
)

// reproVersion guards the on-disk format; bump on incompatible change.
const reproVersion = 1

// Repro is a self-contained, replayable failure report: the (shrunk)
// program, everything needed to rebuild the check options, and the
// failure that was observed. Serialized as JSON by cmd/rccfuzz.
type Repro struct {
	Version   int      `json:"version"`
	Seed      uint64   `json:"seed"` // generator seed (0 for hand-written programs)
	Protocols []string `json:"protocols"`
	RunSeeds  int      `json:"runSeeds"`
	Jitter    uint64   `json:"jitter"`
	MaxCycles uint64   `json:"maxCycles"`
	Prog      *Prog    `json:"prog"`
	Failure   *Failure `json:"failure,omitempty"`
}

// NewRepro packages a failing program and the options that exposed it.
func NewRepro(seed uint64, p *Prog, f *Failure, opts Options) *Repro {
	r := &Repro{
		Version:   reproVersion,
		Seed:      seed,
		RunSeeds:  opts.RunSeeds,
		Jitter:    opts.Jitter,
		MaxCycles: opts.MaxCycles,
		Prog:      p,
		Failure:   f,
	}
	for _, proto := range opts.Protocols {
		r.Protocols = append(r.Protocols, proto.String())
	}
	return r
}

// Options rebuilds the check options the repro was recorded under and
// validates them, so a hand-edited repro cannot ask for no runs, more
// than 2^16 runs, no protocols or an unbounded jitter.
func (r *Repro) Options() (Options, error) {
	opts := DefaultOptions()
	opts.RunSeeds = r.RunSeeds
	opts.Jitter = r.Jitter
	opts.MaxCycles = r.MaxCycles
	opts.Protocols = nil
	for _, name := range r.Protocols {
		p, err := config.ParseProtocol(name)
		if err != nil {
			return Options{}, err
		}
		opts.Protocols = append(opts.Protocols, p)
	}
	if err := opts.Validate(); err != nil {
		return Options{}, err
	}
	return opts, nil
}

// Replay re-runs the differential check on the repro's program under its
// recorded options and returns the failure it reproduces, if any.
func (r *Repro) Replay() (*Failure, error) {
	if r.Prog == nil {
		return nil, fmt.Errorf("check: repro has no program")
	}
	if err := r.Prog.WellFormed(); err != nil {
		return nil, err
	}
	opts, err := r.Options()
	if err != nil {
		return nil, err
	}
	return CheckProg(r.Prog, opts)
}

// WriteRepro serializes the repro to path as indented JSON.
func WriteRepro(path string, r *Repro) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadRepro loads a repro written by WriteRepro.
func ReadRepro(path string) (*Repro, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("check: parsing repro %s: %w", path, err)
	}
	if r.Version != reproVersion {
		return nil, fmt.Errorf("check: repro %s has version %d, want %d", path, r.Version, reproVersion)
	}
	return &r, nil
}
