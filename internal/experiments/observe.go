// Progress reporting for the experiment harness.
//
// Determinism note: the Runner's Progress, Started and Observe hooks fire
// from worker goroutines in completion order (non-deterministic under
// Jobs > 1) and must only drive side channels like stderr. The
// trace.Observers sets Runner.Attach hands out, by contrast, are one per
// sweep point and each is driven only by that point's single-threaded
// machine, so replaying the buses and merging the sketches in point order
// after the sweep yields output independent of Jobs.
package experiments

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// StderrProgress returns a progress callback that rewrites one status
// line on w (normally os.Stderr) with points done/total, throughput, a
// wall-clock ETA, and the label of the point that just finished. Rates and
// the ETA come from the monotonic clock reading carried by time.Time, so
// wall-clock steps (NTP, suspend) cannot produce negative or absurd ETAs.
// It is mutex-guarded and so safe for concurrent workers; wall-clock time
// never influences simulation results, only this side channel.
func StderrProgress(w io.Writer, label string) func(done, total int, point string) {
	var mu sync.Mutex
	start := time.Now()
	return func(done, total int, point string) {
		mu.Lock()
		defer mu.Unlock()
		elapsed := time.Since(start)
		eta := "?"
		pps := 0.0
		if done > 0 && elapsed > 0 {
			pps = float64(done) / elapsed.Seconds()
			remain := time.Duration(float64(elapsed) / float64(done) * float64(total-done))
			eta = remain.Round(time.Second).String()
		}
		fmt.Fprintf(w, "\r%s: %d/%d points (%.1f/s, %s elapsed, ETA %s) %s  ", label, done, total,
			pps, elapsed.Round(time.Second), eta, point)
		if done == total {
			fmt.Fprintln(w)
		}
	}
}
