package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden digest files")

// goldenProtocols fixes the digest order; appending a protocol changes the
// digest, so regenerate with -update if the protocol set ever grows.
var goldenProtocols = []config.Protocol{
	config.MESI, config.TCS, config.TCW, config.RCC, config.RCCWO, config.SCIdeal,
}

// TestCrossProtocolGoldenDigest pins the simulated results of every
// protocol on one inter-workgroup benchmark (DLB). Each protocol runs
// twice: the two stats.Run values must be bit-identical (determinism), and
// the digest over all protocols must match the checked-in value
// (testdata/golden_stats.digest) so scheduler or allocation-pool rewrites
// cannot silently change simulated behaviour. Regenerate with
//
//	go test ./internal/sim -run CrossProtocolGoldenDigest -update
//
// only when a change is *meant* to alter simulated cycles.
func TestCrossProtocolGoldenDigest(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	h := sha256.New()
	for _, p := range goldenProtocols {
		cfg := config.Small()
		cfg.Protocol = p

		var snaps [2]string
		for i := range snaps {
			res, err := RunBenchmark(cfg, b)
			if err != nil {
				t.Fatalf("%v run %d: %v", p, i, err)
			}
			snaps[i] = fmt.Sprintf("%+v", *res.Stats)
		}
		if snaps[0] != snaps[1] {
			t.Errorf("%v: stats differ between two identical runs:\n run0: %s\n run1: %s", p, snaps[0], snaps[1])
		}
		fmt.Fprintf(h, "%v\n%s\n", p, snaps[0])
	}
	digest := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "golden_stats.digest")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden digest (run with -update to create): %v", err)
	}
	if got, w := digest, strings.TrimSpace(string(want)); got != w {
		t.Errorf("cross-protocol stats digest changed:\n got  %s\n want %s\n"+
			"simulated results are pinned; if this change is intentional, regenerate with -update", got, w)
	}
}
