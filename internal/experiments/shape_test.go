package experiments

import (
	"testing"

	"rccsim/internal/config"
)

// TestPaperShape pins the qualitative results of the reproduction (see
// EXPERIMENTS.md): protocol orderings on inter-workgroup sharing,
// insensitivity on intra-workgroup sharing, renewal traffic savings, and
// energy relations. It runs the full Table III machine at half-scale
// traces, so it is skipped in -short mode.
func TestPaperShape(t *testing.T) {
	if testing.Short() {
		t.Skip("full-machine shape test")
	}
	cfg := config.Default()
	cfg.Scale = 0.5
	r := NewRunner(cfg)

	rows, err := r.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	inter, intra := SpeedupGMeans(rows)

	// Claim 2: RCC is the fastest SC-capable protocol on inter-workgroup
	// sharing (gmean over TCS and MESI).
	if inter[config.RCC] < inter[config.TCS] {
		t.Errorf("inter-wg gmean: RCC %.3f < TCS %.3f", inter[config.RCC], inter[config.TCS])
	}
	if inter[config.RCC] < 0.98 {
		t.Errorf("inter-wg gmean: RCC %.3f clearly below MESI", inter[config.RCC])
	}
	// ... and on each inter-wg kernel, not only in the gmean.
	nInter := 0
	for _, row := range rows {
		if !row.Inter {
			continue
		}
		nInter++
		if rcc, tcs := row.Speedup[config.RCC], row.Speedup[config.TCS]; rcc <= tcs {
			t.Errorf("%s: RCC %.3f <= TCS %.3f", row.Bench, rcc, tcs)
		}
	}
	if nInter != 6 {
		t.Errorf("%d inter-wg kernels, want 6", nInter)
	}
	// Claim 3: TCW (non-SC) is fastest overall.
	if inter[config.TCW] < inter[config.RCC] {
		t.Errorf("inter-wg gmean: TCW %.3f < RCC %.3f", inter[config.TCW], inter[config.RCC])
	}
	// Claim 5: intra-workgroup benchmarks are protocol-insensitive for
	// the SC protocols (within 15% of MESI in gmean).
	for _, p := range []config.Protocol{config.TCS, config.RCC} {
		if intra[p] < 0.85 || intra[p] > 1.2 {
			t.Errorf("intra-wg gmean for %v = %.3f, want ~1.0", p, intra[p])
		}
	}

	// Fig 10: over all 12 kernels, weak ordering speeds RCC up at least
	// as much as TCW gains over RCC-SC, and TCW does gain. Per kernel the
	// two are within a rounding error, so the ordering is pinned on the
	// gmean only.
	f10, err := r.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	var wo, tcw []float64
	for _, row := range f10 {
		wo = append(wo, row.Speedup[config.RCCWO])
		tcw = append(tcw, row.Speedup[config.TCW])
	}
	if len(f10) != 12 {
		t.Errorf("Fig 10 has %d kernels, want 12", len(f10))
	}
	if gw, gt := GMean(wo), GMean(tcw); gw < gt || gt <= 1 {
		t.Errorf("Fig 10 gmean: RCC-WO %.3f, TCW %.3f; want RCC-WO >= TCW > 1", gw, gt)
	}

	// Claim 6: renewal never increases traffic, and saves on at least
	// half the inter-wg benchmarks.
	f7, err := r.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	saves := 0
	for _, row := range f7 {
		ratio := float64(row.FlitsRenew) / float64(row.FlitsNoRenew)
		if ratio > 1.02 {
			t.Errorf("%s: renewal increased traffic (ratio %.3f)", row.Bench, ratio)
		}
		if row.Inter && ratio < 0.99 {
			saves++
		}
	}
	if saves < 3 {
		t.Errorf("renewal saved traffic on only %d/6 inter-wg benchmarks", saves)
	}

	// Claim 7: on inter-wg benchmarks with non-negligible expiry, a
	// sizable fraction of expirations are renewable.
	f6, err := r.Fig6()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range f6 {
		if row.Inter && row.ExpiredFrac > 0.05 && row.RenewableFrac < 0.2 {
			t.Errorf("%s: only %.0f%% of expirations renewable", row.Bench, 100*row.RenewableFrac)
		}
	}

	// Energy: RCC total interconnect energy <= MESI on every benchmark
	// (2 VCs and no inv/recall/PutS traffic).
	for _, row := range rows {
		if e := row.Energy[config.RCC].Total; e > 1.05 {
			t.Errorf("%s: RCC energy %.2fx MESI", row.Bench, e)
		}
	}

	// Fig 1d: SC-IDEAL helps inter-workgroup benchmarks and is neutral
	// on intra-workgroup ones.
	f1, err := r.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	var interIdeal, intraIdeal []float64
	for _, row := range f1 {
		if row.Inter {
			interIdeal = append(interIdeal, row.IdealSpeedup)
		} else {
			intraIdeal = append(intraIdeal, row.IdealSpeedup)
		}
	}
	if g := GMean(interIdeal); g < 1.02 {
		t.Errorf("SC-IDEAL inter-wg gmean = %.3f, want > 1.02", g)
	}
	if g := GMean(intraIdeal); g < 0.97 || g > 1.06 {
		t.Errorf("SC-IDEAL intra-wg gmean = %.3f, want ~1.0", g)
	}
}
