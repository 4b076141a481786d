package sim

import (
	"bytes"
	"fmt"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs/span"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestSpanInvariantsAllProtocols is the tentpole reconciliation test: on
// every protocol, every sampled op's segment breakdown must sum exactly to
// its end-to-end latency, every span must be closed by the end of the run,
// and the extracted critical path must be bounded by the run extent below
// and by the longest single op above.
func TestSpanInvariantsAllProtocols(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	for _, p := range goldenProtocols {
		p := p
		t.Run(fmt.Sprintf("%v", p), func(t *testing.T) {
			t.Parallel()
			cfg := config.Small()
			cfg.Protocol = p
			rec := span.NewRecorder(1) // track every op
			res, err := RunBenchmark(cfg, b, trace.Observers{Sp: rec})
			if err != nil {
				t.Fatal(err)
			}
			if n := rec.LiveCount(); n != 0 {
				t.Fatalf("%d spans still open after drain", n)
			}
			ops := rec.Done()
			if len(ops) == 0 {
				t.Fatal("no spans recorded")
			}
			var longest uint64
			for _, o := range ops {
				var sum uint64
				for _, n := range o.Segs {
					sum += n
				}
				if sum != o.Total() {
					t.Fatalf("op %d: segment sum %d != total %d (%+v)", o.ID, sum, o.Total(), o.Segs)
				}
				if o.Finish < o.Issue {
					t.Fatalf("op %d: finish %d before issue %d", o.ID, o.Finish, o.Issue)
				}
				if o.Total() > longest {
					longest = o.Total()
				}
			}
			sum := rec.Summarize(5)
			if sum.Tracked != len(ops) {
				t.Fatalf("summary tracked %d, recorder has %d", sum.Tracked, len(ops))
			}
			cp := sum.Critical.Cycles
			if cp > res.Stats.Cycles {
				t.Fatalf("critical path %d exceeds run length %d", cp, res.Stats.Cycles)
			}
			if cp < longest {
				t.Fatalf("critical path %d shorter than longest op %d", cp, longest)
			}
		})
	}
}

// TestSpansAreBehaviourNeutral pins the observer property: attaching a
// recorder must not change a single simulated counter.
func TestSpansAreBehaviourNeutral(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	cfg := config.Small()
	cfg.Protocol = config.RCC
	ref, err := RunBenchmark(cfg, b, trace.Observers{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmark(cfg, b, trace.Observers{Sp: span.NewRecorder(2)})
	if err != nil {
		t.Fatal(err)
	}
	if *res.Stats != *ref.Stats {
		t.Fatalf("spans changed simulated results:\n with:    %+v\n without: %+v",
			*res.Stats, *ref.Stats)
	}
}

// TestSpanSampling: a sparser recorder tracks a strict subset and roughly
// the expected fraction of ops.
func TestSpanSampling(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	cfg := config.Small()
	cfg.Protocol = config.RCC
	counts := map[int]int{}
	for _, every := range []int{1, 8} {
		rec := span.NewRecorder(every)
		if _, err := RunBenchmark(cfg, b, trace.Observers{Sp: rec}); err != nil {
			t.Fatal(err)
		}
		counts[every] = len(rec.Done())
	}
	all, some := counts[1], counts[8]
	if all == 0 || some == 0 {
		t.Fatalf("counts: %v", counts)
	}
	if some >= all || some < all/32 || some > all/2 {
		t.Fatalf("every=8 tracked %d of %d ops, outside plausible 1/8 band", some, all)
	}
}

// TestSpanSnapshotsDuringRun reads the recorder's snapshots (Summarize,
// Done, LiveCount) in a loop from another goroutine while a machine
// records into it, as the -serve endpoint does. Under -race it checks that
// the unlocked per-op path publishes finished ops safely; the final
// summary must equal that of a run nobody read during.
func TestSpanSnapshotsDuringRun(t *testing.T) {
	b, ok := workload.ByName("DLB")
	if !ok {
		t.Fatal("benchmark DLB not found")
	}
	cfg := config.Small()
	cfg.Protocol = config.RCC
	cfg.Scale = 0.25
	summary := func(rec *span.Recorder) string {
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf, 5); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	quiet := span.NewRecorder(4)
	if _, err := RunBenchmark(cfg, b, trace.Observers{Sp: quiet}); err != nil {
		t.Fatal(err)
	}

	rec := span.NewRecorder(4)
	started, stop := make(chan struct{}), make(chan struct{})
	reads := make(chan int)
	go func() {
		n, last := 0, 0
		for {
			s := rec.Summarize(3)
			done := len(rec.Done())
			if s.Tracked < last || done < s.Tracked || rec.LiveCount() < 0 {
				t.Errorf("snapshot went back: tracked %d after %d, done %d", s.Tracked, last, done)
			}
			last = done
			if n++; n == 1 {
				close(started)
			}
			select {
			case <-stop:
				reads <- n
				return
			default:
			}
		}
	}()
	<-started
	_, err := RunBenchmark(cfg, b, trace.Observers{Sp: rec})
	close(stop)
	n := <-reads
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d snapshots read while the machine ran", n)
	if got, want := summary(rec), summary(quiet); got != want {
		t.Errorf("summary after %d concurrent reads differs:\n got  %s\n want %s", n, got, want)
	}
}
