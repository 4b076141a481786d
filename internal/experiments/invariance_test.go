package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/core"
	"rccsim/internal/workload"
)

// Sec. III-E finds the spread among fixed RCC leases negligible. The
// reason is the Tardis argument (PAPERS.md, arxiv 1501.04504): only the
// order of logical timestamps decides hits, expiries, renewals and
// stalls, and one uniform lease scales every timestamp gap alike. So with
// the predictor off the fixed lease must not change a run at all, and
// neither may the timestamp width while no rollover happens. The tests
// below pin both on the Table III machine for every kernel under RCC and
// RCC-WO: a full-scale oracle that rccfuzz and rcccheck, which run only
// small machines, do not give.

var (
	invariantLeases = []uint64{4, 8, 64, 2048}
	// invariantTSMax are widths the runs never roll over at: each must
	// match the 32-bit reference. rolloverTSMax must roll over on some
	// kernel, or the width check would pass vacuously. The width points
	// run at the longest lease, where timestamps grow fastest.
	invariantTSMax = []uint64{1<<16 - 1, 1<<20 - 1}
	rolloverTSMax  = uint64(1<<14 - 1)
)

// invarianceBase is the machine every invariance point varies: Table III
// at scale 0.25 with the lease predictor off, so one fixed lease serves
// every load.
func invarianceBase() config.Config {
	cfg := config.Default()
	cfg.Scale = 0.25
	cfg.RCCPredictor = false
	return cfg
}

// invariancePoint is one run of a (kernel, protocol) pair.
type invariancePoint struct {
	name string
	set  func(*config.Config)
}

func leasePoints() []invariancePoint {
	var pts []invariancePoint
	for _, lease := range invariantLeases {
		pts = append(pts, invariancePoint{fmt.Sprintf("lease %d", lease), func(c *config.Config) { c.RCCFixedLease = lease }})
	}
	return pts
}

func tsMaxPoint(tsMax uint64) invariancePoint {
	lease := invariantLeases[len(invariantLeases)-1]
	return invariancePoint{fmt.Sprintf("lease %d with RCCTSMax %#x", lease, tsMax), func(c *config.Config) {
		c.RCCFixedLease = lease
		c.RCCTSMax = tsMax
	}}
}

// pairRuns holds one (kernel, protocol) pair's runs, in point order.
type pairRuns struct {
	pair      string
	wire      [][]byte
	rollovers []uint64
}

// runInvariance runs every kernel under RCC and RCC-WO at each point,
// through the Runner's sweep path.
func runInvariance(t *testing.T, pts []invariancePoint) []pairRuns {
	t.Helper()
	r := NewRunner(invarianceBase())
	var out []pairRuns
	for _, b := range workload.All() {
		var cfgs []config.Config
		for _, p := range []config.Protocol{config.RCC, config.RCCWO} {
			for _, pt := range pts {
				cfg := r.Base
				cfg.Protocol = p
				pt.set(&cfg)
				cfgs = append(cfgs, cfg)
			}
		}
		results, err := r.sweep(b, cfgs)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for i := 0; i < len(results); i += len(pts) {
			pr := pairRuns{pair: pointLabel(b.Name, cfgs[i].Protocol)}
			for _, res := range results[i : i+len(pts)] {
				pr.wire = append(pr.wire, res.Stats.WireBytes())
				pr.rollovers = append(pr.rollovers, res.Stats.Rollovers)
			}
			out = append(out, pr)
		}
	}
	return out
}

// firstDiff returns the index of the first run whose wire stats differ
// from run 0's, or -1 when all are equal.
func firstDiff(wire [][]byte) int {
	for i := 1; i < len(wire); i++ {
		if !bytes.Equal(wire[0], wire[i]) {
			return i
		}
	}
	return -1
}

// TestLogicalTimeInvariance: with the predictor off, every fixed lease
// gives bit-identical stats, and so does every timestamp width that does
// not roll over; a 14-bit width does roll over somewhere.
func TestLogicalTimeInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 kernels x 2 protocols x 7 points at scale 0.25")
	}
	pts := leasePoints()
	for _, tsMax := range invariantTSMax {
		pts = append(pts, tsMaxPoint(tsMax))
	}
	pts = append(pts, tsMaxPoint(rolloverTSMax))
	narrow := len(pts) - 1
	rolled := 0
	for _, pr := range runInvariance(t, pts) {
		if pr.rollovers[narrow] > 0 {
			rolled++
		}
		if i := firstDiff(pr.wire[:narrow]); i >= 0 {
			t.Errorf("%s: %s changed the stats of %s", pr.pair, pts[i].name, pts[0].name)
		}
		for i, n := range pr.rollovers[:narrow] {
			if n > 0 {
				t.Errorf("%s: %s rolled over %d times", pr.pair, pts[i].name, n)
			}
		}
	}
	if rolled == 0 {
		t.Errorf("%s never rolled over: the width check is vacuous", pts[narrow].name)
	}
	t.Logf("%s rolled over on %d pairs", pts[narrow].name, rolled)
}

// TestLogicalTimeInvarianceCatchesWeakLease is the mutation twin: an L1
// that reads a copy up to 16 logical ticks past its lease makes the
// outcome depend on the lease length, so the invariance must break.
func TestLogicalTimeInvarianceCatchesWeakLease(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 12 kernels x 2 protocols x 4 leases at scale 0.25")
	}
	defer core.WeakenLeaseCheckForTest(16)()
	broken := 0
	pairs := runInvariance(t, leasePoints())
	for _, pr := range pairs {
		if firstDiff(pr.wire) >= 0 {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("a lease check weakened by 16 ticks left every fixed lease bit-identical: the invariance test cannot see it")
	}
	t.Logf("weakened lease check broke the invariance on %d of %d pairs", broken, len(pairs))
}
