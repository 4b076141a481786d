// Command rcctrace runs a small, fully deterministic two-core RCC scenario
// and prints every coherence event: the Fig. 3 walkthrough rendered as a
// message-level trace. It exists to make the protocol legible — each line
// shows a request or response together with the logical timestamps it
// carries and the resulting core clocks.
//
// The scenario lives in internal/scenario; this command just wires trace
// sinks to it. Stdout always carries the human-readable renderer
// (trace.TextSink); -trace additionally captures the full event stream
// (messages, lease grants/expiries, clock advances, L1/L2 transitions) to
// a file as JSONL or a Perfetto-loadable Chrome trace.
//
//	rcctrace [-lease n] [-trace file] [-trace-format jsonl|perfetto]
package main

import (
	"flag"
	"fmt"
	"os"

	"rccsim/internal/scenario"
	"rccsim/internal/trace"
)

var (
	lease       = flag.Uint64("lease", 10, "fixed RCC lease duration")
	traceOut    = flag.String("trace", "", "write the full event trace to this file")
	traceFormat = flag.String("trace-format", "jsonl", "event trace format: jsonl or perfetto")
)

func main() {
	flag.Parse()
	sinks := []trace.Sink{trace.NewTextSink(os.Stdout, 2)}
	if *traceOut != "" {
		newSink, err := trace.SinkFor(*traceFormat)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcctrace: -trace-format:", err)
			os.Exit(1)
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rcctrace:", err)
			os.Exit(1)
		}
		defer f.Close()
		sinks = append(sinks, newSink(f))
	}
	bus := trace.NewBus(sinks...)
	msgs, err := scenario.Walkthrough(os.Stdout, *lease, trace.Observers{Tr: bus})
	if err == nil {
		err = bus.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcctrace:", err)
		os.Exit(1)
	}
	fmt.Printf("\n%d coherence messages total; stores never stalled for permissions.\n", msgs)
}
