package check

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

// TestFuzzRunsPinned digests every run the fuzzer makes of seeds 0–59
// under DefaultOptions (720 runs: 4 protocols × 3 run seeds per program),
// each on the runner's one machine, reset between run seeds. Per run it
// hashes the line "seed/proto/r:runErr|invErr|outcome|memory|cycles|wire",
// where wire is the first 8 bytes of the SHA-256 of the counters' wire
// image. The digest was recorded when every run built a fresh machine
// whose NoC drew its own seeded jitter, so it pins that a reset machine
// with the fuzzer's delay chooser runs each seed exactly as a fresh one.
func TestFuzzRunsPinned(t *testing.T) {
	const want = "91056f8825c79624296ea2f916899d9347344d7b159db8ad9bc98209c7f87664"
	opts := DefaultOptions()
	h := sha256.New()
	for seed := uint64(0); seed < 60; seed++ {
		p := Generate(seed, opts.Gen)
		for _, proto := range opts.Protocols {
			r := newRunner(p, nil, proto, opts.MaxCycles)
			for i := 0; i < opts.RunSeeds; i++ {
				if err := r.perturb(i, opts.Jitter); err != nil {
					t.Fatal(err)
				}
				_, runErr := r.m.Run()
				final := make([]uint64, p.Lines)
				for l := range final {
					final[l] = r.m.ReadLine(Base + uint64(l))
				}
				wire := sha256.Sum256(r.m.Stats().AppendWire(nil))
				fmt.Fprintf(h, "%d/%s/%d:%v|%v|%s|%s|%d|%x\n", seed, proto, i, runErr, r.inv.Err(),
					CanonOutcome(r.rec.entries), memKey(final), r.m.Now(), wire[:8])
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != want {
		t.Fatalf("fuzz-run digest %s, want %s", got, want)
	}
}
