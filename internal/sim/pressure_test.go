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
	"rccsim/internal/timing"
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
	checkPressureDigest(t, "mshr_pressure.digest", smallPressureConfigs(config.LRR, false), false)
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
	cfgs := smallPressureConfigs(config.GTO, false)
	for _, p := range goldenProtocols {
		cfg := config.Default()
		cfg.Protocol = p
		cfg.Scheduler = config.GTO
		cfg.Scale = 0.25
		cfg.RCCTSMax = 4 * cfg.RCCMaxLease
		cfgs = append(cfgs, cfg)
	}
	checkPressureDigest(t, "gto_pressure.digest", cfgs, false)
}

// TestL2MSHRPressureDigest pins simulated behaviour where the L2's
// deferred list is hot: every benchmark under every protocol with 1, 2
// and 4 MSHRs per L2 partition, so misses are refused and wait at the
// head of the deferred list, with the narrowest RCC timestamp space so
// RCC partitions also refuse for rollovers and requeue at the reset. It
// proves that changes to how a partition retries or sleeps past refused
// requests keep every stats.Run bit-identical. Regenerate with
//
//	go test ./internal/sim -run L2MSHRPressureDigest -update
//
// only when a change is *meant* to alter simulated cycles.
func TestL2MSHRPressureDigest(t *testing.T) {
	checkPressureDigest(t, "l2_pressure.digest", smallPressureConfigs(config.LRR, true), true)
}

// smallPressureConfigs returns every protocol with 1, 2 and 4 MSHRs per
// L1, or per L2 partition when l2 is set, on config.Small at scale 0.03
// under sched, in digest order, with the narrowest RCC timestamp space
// Validate allows, so RCC runs roll over.
func smallPressureConfigs(sched config.Scheduler, l2 bool) []config.Config {
	var cfgs []config.Config
	for _, p := range goldenProtocols {
		for _, mshrs := range []int{1, 2, 4} {
			cfg := config.Small()
			cfg.Protocol = p
			cfg.Scheduler = sched
			cfg.Scale = 0.03
			if l2 {
				cfg.L2MSHRs = mshrs
			} else {
				cfg.L1MSHRs = mshrs
			}
			cfg.RCCTSMax = 4 * cfg.RCCMaxLease
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

// checkPressureDigest runs every benchmark under every configuration and
// compares the digest of all stats.Run values with testdata/file. The
// configurations vary the L1 MSHR count, or the L2's when l2 is set; each
// run is labelled with the count that varies, and the refusal path the
// digest must cover is the SM's (cycles charged to mshr-full) or the L2's
// (ticks that end with a refused request parked at the deferred head).
func checkPressureDigest(t *testing.T, file string, cfgs []config.Config, l2 bool) {
	t.Helper()
	h := sha256.New()
	var rollovers, mshrFull, parked uint64
	for _, b := range workload.All() {
		for _, cfg := range cfgs {
			mshrs := cfg.L1MSHRs
			if l2 {
				mshrs = cfg.L2MSHRs
			}
			st, n, err := runCountingL2(cfg, b)
			if err != nil {
				t.Fatalf("%s/%v/mshrs=%d: %v", b.Name, cfg.Protocol, mshrs, err)
			}
			rollovers += st.Rollovers
			mshrFull += st.CycleAccount[stats.CatMSHRFull]
			parked += n.parked
			fmt.Fprintf(h, "%s %v %d\n%+v\n", b.Name, cfg.Protocol, mshrs, *st)
		}
	}
	// The digest only guards the refusal and rollover paths if they ran.
	if rollovers == 0 {
		t.Error("no RCC rollover happened; the thaw wake path is not covered")
	}
	if !l2 && mshrFull == 0 {
		t.Error("no cycle was charged to mshr-full; the refusal path is not covered")
	}
	if l2 && parked == 0 {
		t.Error("no L2 tick left a refused request parked; the deferred path is not covered")
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

// countedL2 wraps an L2 partition and counts its Ticks into n.
type countedL2 struct {
	l2Ctl
	n *l2Counts
}

// l2Counts tallies the Ticks of a machine's L2 partitions: all of them,
// the ones that did no work, and the ones that ended with a refused
// request parked at the head of the deferred list.
type l2Counts struct{ ticks, idle, parked uint64 }

func (c countedL2) Tick(now timing.Cycle) bool {
	did := c.l2Ctl.Tick(now)
	c.n.ticks++
	if !did {
		c.n.idle++
	}
	if p, ok := c.l2Ctl.(interface{ Parked() bool }); ok && p.Parked() {
		c.n.parked++
	}
	return did
}

// runCountingL2 is RunBenchmark with no observers and every L2
// partition's Ticks counted.
func runCountingL2(cfg config.Config, b workload.Benchmark) (*stats.Run, l2Counts, error) {
	var n l2Counts
	m, err := New(cfg, b.Generate(cfg), nil)
	if err != nil {
		return nil, n, err
	}
	for p, l2 := range m.l2s {
		m.l2s[p] = countedL2{l2, &n}
	}
	st, err := m.Run()
	return st, n, err
}

// TestL2TicksDoWork: an L2 partition is ticked only when it can do work.
// It wakes when a delivered request leaves its access pipe, not when the
// request is delivered, and a refused request parked at the head of its
// deferred list waits for the event that can let it in, not for the next
// cycle. So on the L2 pressure configurations, where partitions refuse
// requests all the time, and on the weak protocols at config.Small, at
// most 5% of L2 Ticks may do nothing.
func TestL2TicksDoWork(t *testing.T) {
	cfgs := smallPressureConfigs(config.LRR, true)
	for _, p := range []config.Protocol{config.TCW, config.RCCWO} {
		cfg := config.Small()
		cfg.Protocol = p
		cfgs = append(cfgs, cfg)
	}
	for _, cfg := range cfgs {
		var all l2Counts
		for _, b := range workload.All() {
			_, n, err := runCountingL2(cfg, b)
			if err != nil {
				t.Fatalf("%s/%v/l2mshrs=%d: %v", b.Name, cfg.Protocol, cfg.L2MSHRs, err)
			}
			all.ticks += n.ticks
			all.idle += n.idle
		}
		t.Logf("%v/l2mshrs=%d: %d of %d L2 ticks did nothing", cfg.Protocol, cfg.L2MSHRs, all.idle, all.ticks)
		if all.idle*20 > all.ticks {
			t.Errorf("%v/l2mshrs=%d: %d of %d L2 ticks did nothing, want at most 5%%", cfg.Protocol, cfg.L2MSHRs, all.idle, all.ticks)
		}
	}
}
