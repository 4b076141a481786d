package sim

import (
	"fmt"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs/span"
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
			res, err := RunBenchmarkSpanned(cfg, b, nil, nil, rec)
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
	ref, err := RunBenchmark(cfg, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBenchmarkSpanned(cfg, b, nil, nil, span.NewRecorder(2))
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
		if _, err := RunBenchmarkSpanned(cfg, b, nil, nil, rec); err != nil {
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
