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
	h := sha256.New()
	var rollovers, mshrFull uint64
	for _, b := range workload.All() {
		for _, p := range goldenProtocols {
			for _, mshrs := range []int{1, 2, 4} {
				cfg := config.Small()
				cfg.Protocol = p
				cfg.Scale = 0.03
				cfg.L1MSHRs = mshrs
				cfg.RCCTSMax = 4 * cfg.RCCMaxLease // narrowest width Validate allows
				res, err := RunBenchmark(cfg, b)
				if err != nil {
					t.Fatalf("%s/%v/mshrs=%d: %v", b.Name, p, mshrs, err)
				}
				st := res.Stats
				rollovers += st.Rollovers
				mshrFull += st.CycleAccount[stats.CatMSHRFull]
				fmt.Fprintf(h, "%s %v %d\n%+v\n", b.Name, p, mshrs, *st)
			}
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

	path := filepath.Join("testdata", "mshr_pressure.digest")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading MSHR-pressure digest (run with -update to create): %v", err)
	}
	if got, w := digest, strings.TrimSpace(string(want)); got != w {
		t.Errorf("MSHR-pressure stats digest changed:\n got  %s\n want %s\n"+
			"simulated results are pinned; if this change is intentional, regenerate with -update", got, w)
	}
}
