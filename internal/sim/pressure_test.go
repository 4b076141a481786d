package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestMSHRPressureDigest pins simulated behaviour where the SM's
// MSHR-refusal path is hot: every benchmark under every protocol with
// 1, 2 and 4 L1 MSHRs, with the narrowest
// RCC timestamp space so the RCC runs also freeze and thaw their L1s for
// rollovers. TestCrossProtocolGoldenDigest runs at 128 MSHRs, where
// refusals are rare; this digest is what proves that changes to how the
// SM retries refused submits keep every stats.Run bit-identical.
// Regenerate with
//
//	go test ./internal/sim -run MSHRPressureDigest -update
//
// only when a change is *meant* to alter simulated cycles.
func TestMSHRPressureDigest(t *testing.T) {
	checkPressureDigest(t, "mshr_pressure.digest", smallPressureConfigs(config.LRR))
}

// TestGTOPressureDigest is TestMSHRPressureDigest under the greedy-then-
// oldest scheduler, whose greedy re-check of the last issuing warp is a
// second path into a refused submit, plus every protocol on the Table III
// machine (128 MSHRs) at scale 0.25, where 48 warps compete for the table
// and rollovers still freeze the L1s mid-run. Regenerate with
//
//	go test ./internal/sim -run GTOPressureDigest -update
//
// only when a change is *meant* to alter simulated cycles.
func TestGTOPressureDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("Table III runs; skipped under -short")
	}
	cfgs := smallPressureConfigs(config.GTO)
	for _, p := range goldenProtocols {
		cfg := config.Default()
		cfg.Protocol = p
		cfg.Scheduler = config.GTO
		cfg.Scale = 0.25
		cfg.RCCTSMax = 4 * cfg.RCCMaxLease
		cfgs = append(cfgs, cfg)
	}
	checkPressureDigest(t, "gto_pressure.digest", cfgs)
}

// smallPressureConfigs returns every protocol with 1, 2 and 4 L1 MSHRs on
// config.Small at scale 0.03 under sched, in digest order, with the
// narrowest RCC timestamp space Validate allows, so RCC runs roll over.
func smallPressureConfigs(sched config.Scheduler) []config.Config {
	var cfgs []config.Config
	for _, p := range goldenProtocols {
		for _, mshrs := range []int{1, 2, 4} {
			cfg := config.Small()
			cfg.Protocol = p
			cfg.Scheduler = sched
			cfg.Scale = 0.03
			cfg.L1MSHRs = mshrs
			cfg.RCCTSMax = 4 * cfg.RCCMaxLease
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// checkPressureDigest runs every benchmark under every configuration and
// compares the digest of all stats.Run values with testdata/file.
func checkPressureDigest(t *testing.T, file string, cfgs []config.Config) {
	t.Helper()
	h := sha256.New()
	var rollovers, mshrFull uint64
	for _, b := range workload.All() {
		for _, cfg := range cfgs {
			res, err := RunBenchmark(cfg, b, trace.Observers{})
			if err != nil {
				t.Fatalf("%s/%v/mshrs=%d: %v", b.Name, cfg.Protocol, cfg.L1MSHRs, err)
			}
			st := res.Stats
			rollovers += st.Rollovers
			mshrFull += st.CycleAccount[stats.CatMSHRFull]
			fmt.Fprintf(h, "%s %v %d\n%+v\n", b.Name, cfg.Protocol, cfg.L1MSHRs, *st)
		}
	}
	// The digest only guards the refusal and rollover paths if they ran.
	if rollovers == 0 {
		t.Error("no RCC rollover happened; the thaw wake path is not covered")
	}
	if mshrFull == 0 {
		t.Error("no cycle was charged to mshr-full; the refusal path is not covered")
	}
	digest := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", file)
	if *updateGolden {
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (run with -update to create): %v", file, err)
	}
	if got, w := digest, strings.TrimSpace(string(want)); got != w {
		t.Errorf("%s changed:\n got  %s\n want %s\n"+
			"simulated results are pinned; if this change is intentional, regenerate with -update", file, got, w)
	}
}
