package main

import "time"

// Host-speed calibration.
//
// On a shared host the simulator's wall time drifts by tens of percent
// with other tenants' memory traffic, in spells that last minutes, so no
// amount of repetition inside one run averages it out. A fixed reference
// loop slows down with it: random read-modify-writes over a buffer that
// fits a core's L2 cache but not its L1. The benchmark times that loop
// before every run and divides each pass's times by the pass's host
// factor, the median loop time over refNominal. End-to-end times are
// thus in reference-host seconds: what the pass would have taken on a
// host where the loop takes refNominal. Regressing the pass times of
// suite-weak and mc-family on this loop's time gave a slope of 1.1–1.3,
// so plain division is close to exact; larger buffers, up to DRAM
// size, tracked the drift with slopes from 0.4 to 0.8 that differed by
// workload.
const (
	refWords   = 32 << 10 // 256 KB of uint64
	refOps     = 150_000
	refNominal = 530 * time.Microsecond // the loop on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest
)

// refLoop runs the reference loop over buf and returns its duration.
func refLoop(buf []uint64) time.Duration {
	start := time.Now()
	x := uint64(7)
	for i := 0; i < refOps; i++ {
		x = x*2862933555777941757 + 3037000493
		buf[x%uint64(len(buf))] += x
	}
	return time.Since(start)
}

// hostFactor is how much slower than the reference host a pass ran: the
// median of its reference-loop times over refNominal (1 without any).
func hostFactor(loops []time.Duration) float64 {
	if len(loops) == 0 {
		return 1
	}
	v := make([]float64, len(loops))
	for i, d := range loops {
		v[i] = float64(d)
	}
	return quantile(v, 0.5) / float64(refNominal)
}
