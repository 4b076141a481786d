package sim

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/obs"
	"rccsim/internal/obs/span"
	"rccsim/internal/trace"
	"rccsim/internal/workload"
)

// TestObservedStreamDigest pins what the full observer set sees on the
// observed path (rccbench stats -spans -hotspots, litmus runs): three
// inter-workgroup kernels under every protocol, each with a trace bus
// (an interval-metrics sink and a JSONL sink over one buffer, plus an
// InvariantSink), a contention sketch and a span recorder. The digest
// covers the JSONL bytes, the Summarize(10) JSON and the heat table, so
// changes to how the bus hands events to sinks, or to how the recorder
// gates unsampled IDs, must keep every observed byte identical.
// Regenerate with
//
//	go test ./internal/sim -run ObservedStreamDigest -update
//
// only when a change is *meant* to alter what observers see.
func TestObservedStreamDigest(t *testing.T) {
	h := sha256.New()
	var events, spans int
	for _, name := range []string{"DLB", "STN", "VPR"} {
		b, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %s", name)
		}
		for _, p := range goldenProtocols {
			cfg := config.Small()
			cfg.Protocol = p
			cfg.Scale = 0.4
			var jsonl bytes.Buffer
			js := trace.NewJSONLSink(&jsonl)
			bus := trace.NewBus(trace.NewIntervalSink(js, 500), js, trace.NewInvariantSink(nil))
			heat := obs.NewHeat(64)
			rec := span.NewRecorder(4)
			if _, err := RunBenchmarkSpanned(cfg, b, bus, heat, rec); err != nil {
				t.Fatalf("%s/%v: %v", name, p, err)
			}
			if err := bus.Close(); err != nil {
				t.Fatalf("%s/%v: trace bus: %v", name, p, err)
			}
			sum, err := json.Marshal(rec.Summarize(10))
			if err != nil {
				t.Fatal(err)
			}
			events += bytes.Count(jsonl.Bytes(), []byte("\n"))
			spans += len(rec.Done())
			fmt.Fprintf(h, "%s %v\n", name, p)
			h.Write(jsonl.Bytes())
			h.Write(sum)
			heat.WriteTable(h, 10)
		}
	}
	// The digest only guards the observer paths if they saw traffic.
	if events == 0 || spans == 0 {
		t.Fatalf("observers saw %d events and %d spans; nothing is pinned", events, spans)
	}
	digest := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "observed_stream.digest")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(digest+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s (%d events, %d spans)", path, events, spans)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading observed-stream digest (run with -update to create): %v", err)
	}
	if got, w := digest, strings.TrimSpace(string(want)); got != w {
		t.Errorf("observed-stream digest changed:\n got  %s\n want %s\n"+
			"observer output is pinned; if this change is intentional, regenerate with -update", got, w)
	}
}
