package sim_test

import (
	"encoding/json"
	"os"
	"testing"

	"rccsim/internal/check"
	"rccsim/internal/config"
)

// TestLitmusSCProtocols: no SC-capable protocol produces an outcome, or a
// final memory, outside a litmus shape's SC set, across perturbed runs.
// The eight shapes are internal/check's, whose tests pin their SC sets;
// this external test package may import check, which imports sim.
func TestLitmusSCProtocols(t *testing.T) {
	var shapes []struct {
		Name string      `json:"name"`
		Prog *check.Prog `json:"prog"`
	}
	data, err := os.ReadFile("../check/testdata/litmus.json")
	if err == nil {
		err = json.Unmarshal(data, &shapes)
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapes {
		for _, proto := range []config.Protocol{config.MESI, config.TCS, config.RCC, config.SCIdeal} {
			t.Run(s.Name+"/"+proto.String(), func(t *testing.T) {
				opts := check.DefaultOptions()
				opts.Protocols = []config.Protocol{proto}
				opts.RunSeeds = 30
				fail, err := check.CheckProg(s.Prog, opts)
				if err != nil {
					t.Fatal(err)
				}
				if fail != nil {
					t.Fatalf("%v\n%s", fail, s.Prog)
				}
			})
		}
	}
}
