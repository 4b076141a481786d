package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"

	"rccsim/internal/obs/span"
	"rccsim/internal/timing"
)

// SinkFor returns the constructor of the file sink named by format,
// "jsonl" or "perfetto". Resolve the format before creating the output
// file, so an unknown format leaves an existing file untouched.
func SinkFor(format string) (func(w io.Writer) Sink, error) {
	switch format {
	case "jsonl":
		return func(w io.Writer) Sink { return NewJSONLSink(w) }, nil
	case "perfetto":
		return func(w io.Writer) Sink { return NewPerfettoSink(w) }, nil
	}
	return nil, fmt.Errorf("unknown trace format %q (want jsonl or perfetto)", format)
}

// JSONLSink writes one JSON object per event, one per line, with a fixed
// field order so output is grep-friendly and byte-stable for golden-file
// tests. The encoder is hand-rolled (strconv into a reused buffer): the
// event vocabulary is closed and flat, and avoiding encoding/json keeps
// the traced hot path allocation-free.
type JSONLSink struct {
	w   *bufio.Writer
	buf []byte
	err error
}

// NewJSONLSink writes events to w. The caller keeps ownership of any
// underlying file; Close only flushes.
func NewJSONLSink(w io.Writer) *JSONLSink {
	return &JSONLSink{w: bufio.NewWriterSize(w, 1<<16)}
}

func (s *JSONLSink) Event(e *Event) {
	b := s.buf[:0]
	b = append(b, `{"cyc":`...)
	b = strconv.AppendUint(b, uint64(e.Cycle), 10)
	b = append(b, `,"kind":"`...)
	b = append(b, e.Kind.String()...)
	b = append(b, `","label":`...)
	b = strconv.AppendQuote(b, e.Label)
	b = append(b, `,"src":`...)
	b = strconv.AppendInt(b, int64(e.Src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendInt(b, int64(e.Dst), 10)
	b = append(b, `,"warp":`...)
	b = strconv.AppendInt(b, int64(e.Warp), 10)
	b = append(b, `,"line":`...)
	b = strconv.AppendUint(b, e.Line, 10)
	b = append(b, `,"now":`...)
	b = strconv.AppendUint(b, e.Now, 10)
	b = append(b, `,"ver":`...)
	b = strconv.AppendUint(b, e.Ver, 10)
	b = append(b, `,"exp":`...)
	b = strconv.AppendUint(b, e.Exp, 10)
	b = append(b, `,"val":`...)
	b = strconv.AppendUint(b, e.Val, 10)
	b = append(b, `,"flits":`...)
	b = strconv.AppendInt(b, int64(e.Flits), 10)
	b = append(b, "}\n"...)
	s.buf = b
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *JSONLSink) Close() error {
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// PerfettoSink writes the Chrome trace-event JSON array format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU),
// loadable in Perfetto (ui.perfetto.dev) and chrome://tracing. The
// timestamp axis is the simulated cycle (1 "us" = 1 cycle), never
// wall-clock, so timelines are bit-stable and zoomable per cycle.
//
// Track layout: one process per event family (interconnect, L1s, L2s,
// SM stalls, DRAM), one thread per node within it. Point events render as
// instants; SC stalls as duration (B/E) pairs; interval metrics as
// counter ("C") tracks.
type PerfettoSink struct {
	w     *bufio.Writer
	buf   []byte
	first bool
	err   error

	// Derived counter tracks (satellite observability): per-SM logical
	// clock skew and the ver/exp of the hottest (most-written) L2 block.
	clockR   []uint64 // core id → latest read view (0 = not yet seen)
	lastSkew uint64
	skewSeen bool
	lineN    map[uint64]uint64 // L2 line → state-change events seen
	hotLine  uint64
	hotN     uint64
}

// Perfetto pid per event family (names emitted as process_name metadata).
const (
	pidNoC = iota + 1
	pidL1
	pidL2
	pidStall
	pidDRAM
	pidMetrics
	pidSpans
)

// NewPerfettoSink writes a complete JSON trace to w; the closing bracket
// is written on Close.
func NewPerfettoSink(w io.Writer) *PerfettoSink {
	s := &PerfettoSink{w: bufio.NewWriterSize(w, 1<<16), first: true,
		lineN: make(map[uint64]uint64)}
	s.raw(`{"displayTimeUnit":"ms","traceEvents":[`)
	for pid, name := range []string{
		pidNoC:     "interconnect",
		pidL1:      "L1 caches",
		pidL2:      "L2 partitions",
		pidStall:   "SM SC stalls",
		pidDRAM:    "DRAM channels",
		pidMetrics: "interval metrics",
		pidSpans:   "causal spans",
	} {
		if name != "" {
			s.meta(pid, name)
		}
	}
	return s
}

func (s *PerfettoSink) raw(str string) {
	if s.err == nil {
		_, s.err = s.w.WriteString(str)
	}
}

func (s *PerfettoSink) meta(pid int, name string) {
	s.sep()
	s.raw(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%q}}`, pid, name))
}

func (s *PerfettoSink) sep() {
	if s.first {
		s.first = false
		return
	}
	s.raw(",\n")
}

// event appends one trace-event object. args is pre-rendered JSON ("{...}")
// or "" for none.
func (s *PerfettoSink) event(ph string, pid, tid int, cyc timing.Cycle, name, args string) {
	s.sep()
	b := s.buf[:0]
	b = append(b, `{"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pid), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = strconv.AppendUint(b, uint64(cyc), 10)
	b = append(b, `,"name":`...)
	b = strconv.AppendQuote(b, name)
	if ph == "i" {
		b = append(b, `,"s":"t"`...)
	}
	if args != "" {
		b = append(b, `,"args":`...)
		b = append(b, args...)
	}
	b = append(b, '}')
	s.buf = b
	if s.err == nil {
		_, s.err = s.w.Write(b)
	}
}

func (s *PerfettoSink) Event(e *Event) {
	switch e.Kind {
	case KindSend, KindRecv:
		dir := "send"
		if e.Kind == KindRecv {
			dir = "recv"
		}
		s.event("i", pidNoC, e.Src, e.Cycle,
			fmt.Sprintf("%s %s line=%d", dir, e.Label, e.Line),
			fmt.Sprintf(`{"dst":%d,"now":%d,"ver":%d,"exp":%d,"val":%d,"flits":%d}`,
				e.Dst, e.Now, e.Ver, e.Exp, e.Val, e.Flits))
	case KindL1State, KindClock:
		name := e.Label
		args := fmt.Sprintf(`{"line":%d}`, e.Line)
		if e.Kind == KindClock {
			name = fmt.Sprintf("clock r=%d w=%d", e.Now, e.Ver)
			args = ""
			s.trackSkew(e)
		}
		s.event("i", pidL1, e.Src, e.Cycle, name, args)
	case KindL2State:
		s.event("i", pidL2, e.Src, e.Cycle,
			fmt.Sprintf("%s line=%d", e.Label, e.Line),
			fmt.Sprintf(`{"ver":%d,"exp":%d}`, e.Ver, e.Exp))
		s.trackHotLine(e)
	case KindLease:
		pid, tid := pidL2, e.Src
		if e.Label == LeaseExpired { // observed at an L1, not granted by an L2
			pid = pidL1
		}
		s.event("i", pid, tid, e.Cycle,
			fmt.Sprintf("lease %s line=%d", e.Label, e.Line),
			fmt.Sprintf(`{"ver":%d,"exp":%d,"now":%d,"dst":%d}`, e.Ver, e.Exp, e.Now, e.Dst))
	case KindRollover:
		s.event("i", pidL2, 0, e.Cycle, "rollover "+e.Label,
			fmt.Sprintf(`{"node":%d,"val":%d}`, e.Src, e.Val))
	case KindStallBegin:
		s.event("B", pidStall, e.Src, e.Cycle, "SC stall: "+e.Label,
			fmt.Sprintf(`{"warp":%d}`, e.Warp))
	case KindStallEnd:
		s.event("E", pidStall, e.Src, e.Cycle, "SC stall: "+e.Label, "")
	case KindDRAM:
		s.event("i", pidDRAM, e.Src, e.Cycle,
			fmt.Sprintf("%s line=%d", e.Label, e.Line), "")
	case KindMetrics:
		// Label is the counter name, Val its value at this snapshot.
		s.event("C", pidMetrics, 0, e.Cycle, e.Label,
			fmt.Sprintf(`{"%s":%d}`, e.Label, e.Val))
	}
}

// trackSkew maintains per-core read views from KindClock events and emits
// a "clock-skew" counter track whenever max(now)−min(now) across the cores
// seen so far changes — the timeline view of relativistic time divergence.
func (s *PerfettoSink) trackSkew(e *Event) {
	if e.Src < 0 {
		return
	}
	for len(s.clockR) <= e.Src {
		s.clockR = append(s.clockR, 0)
	}
	s.clockR[e.Src] = e.Now
	var min, max uint64
	first := true
	for _, r := range s.clockR {
		if r == 0 {
			continue // core not yet observed; zero views would fake skew
		}
		if first {
			min, max = r, r
			first = false
			continue
		}
		if r < min {
			min = r
		}
		if r > max {
			max = r
		}
	}
	skew := max - min
	if !s.skewSeen || skew != s.lastSkew {
		s.skewSeen = true
		s.lastSkew = skew
		s.event("C", pidMetrics, 1, e.Cycle, "clock-skew",
			fmt.Sprintf(`{"cycles":%d}`, skew))
	}
}

// trackHotLine follows the most state-changed L2 block and renders its
// ver/exp as counter tracks, so lease churn on the contended line is
// visible as a staircase in the timeline.
func (s *PerfettoSink) trackHotLine(e *Event) {
	n := s.lineN[e.Line] + 1
	s.lineN[e.Line] = n
	if n > s.hotN || (n == s.hotN && e.Line == s.hotLine) {
		s.hotN = n
		s.hotLine = e.Line
	}
	if e.Line != s.hotLine {
		return
	}
	s.event("C", pidMetrics, 1, e.Cycle, "hot-line-ver",
		fmt.Sprintf(`{"ver":%d}`, e.Ver))
	s.event("C", pidMetrics, 1, e.Cycle, "hot-line-exp",
		fmt.Sprintf(`{"exp":%d}`, e.Exp))
}

// WriteSpanFlows renders sampled causal spans into the trace: per span,
// one complete ("X") slice per waterfall step on the "causal spans"
// process (tid = issuing SM, slice spanning until the next step), plus a
// Chrome flow-event chain (ph s/t/f sharing the span's id) binding the
// slices, so Perfetto draws arrows following each sampled op through
// issue, NoC, L2, protocol, DRAM, and reply. Call before Close.
func (s *PerfettoSink) WriteSpanFlows(flows []span.Flow) {
	for i := range flows {
		f := &flows[i]
		for j, st := range f.Steps {
			dur := uint64(1)
			if j+1 < len(f.Steps) && f.Steps[j+1].At > st.At {
				dur = f.Steps[j+1].At - st.At
			}
			s.sep()
			b := s.buf[:0]
			b = append(b, `{"ph":"X","pid":`...)
			b = strconv.AppendInt(b, pidSpans, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(f.SM), 10)
			b = append(b, `,"ts":`...)
			b = strconv.AppendUint(b, st.At, 10)
			b = append(b, `,"dur":`...)
			b = strconv.AppendUint(b, dur, 10)
			b = append(b, `,"name":`...)
			b = strconv.AppendQuote(b, st.Seg)
			b = append(b, `,"args":{"span":`...)
			b = strconv.AppendUint(b, f.ID, 10)
			b = append(b, `}}`...)
			s.buf = b
			if s.err == nil {
				_, s.err = s.w.Write(b)
			}
			if len(f.Steps) < 2 {
				continue // a lone anchor has nothing to link
			}
			ph := "t"
			switch j {
			case 0:
				ph = "s"
			case len(f.Steps) - 1:
				ph = "f"
			}
			s.sep()
			b = s.buf[:0]
			b = append(b, `{"ph":"`...)
			b = append(b, ph...)
			b = append(b, `","cat":"span","id":`...)
			b = strconv.AppendUint(b, f.ID, 10)
			b = append(b, `,"pid":`...)
			b = strconv.AppendInt(b, pidSpans, 10)
			b = append(b, `,"tid":`...)
			b = strconv.AppendInt(b, int64(f.SM), 10)
			b = append(b, `,"ts":`...)
			b = strconv.AppendUint(b, st.At, 10)
			b = append(b, `,"name":`...)
			b = strconv.AppendQuote(b, f.Name)
			if ph == "f" {
				b = append(b, `,"bp":"e"`...)
			}
			b = append(b, '}')
			s.buf = b
			if s.err == nil {
				_, s.err = s.w.Write(b)
			}
		}
	}
}

func (s *PerfettoSink) Close() error {
	s.raw("\n]}\n")
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	return s.err
}

// TextSink renders coherence-message sends in the legible column format
// cmd/rcctrace has always printed (the Fig. 3 walkthrough), annotating
// each with its direction relative to the SM/L2 split. Other event kinds
// are skipped, keeping the walkthrough readable.
type TextSink struct {
	w      io.Writer
	numSMs int
	count  int
	err    error
}

// NewTextSink renders to w; node ids < numSMs are cores, the rest L2
// partitions (coherence.L2NodeID layout).
func NewTextSink(w io.Writer, numSMs int) *TextSink {
	return &TextSink{w: w, numSMs: numSMs}
}

// Count reports how many messages were rendered.
func (s *TextSink) Count() int { return s.count }

func (s *TextSink) Event(e *Event) {
	if e.Kind != KindSend {
		return
	}
	s.count++
	var who, dir string
	if e.Src < s.numSMs {
		who = fmt.Sprintf("C%d", e.Src)
		dir = "L1->L2"
	} else {
		who = fmt.Sprintf("C%d", e.Dst)
		dir = "L2->L1"
	}
	if s.err == nil {
		_, s.err = fmt.Fprintf(s.w, "  cyc %-5d %-7s %-6s %-3s line=%d now=%-3d ver=%-3d exp=%-3d val=%d\n",
			e.Cycle, dir, e.Label, who, e.Line, e.Now, e.Ver, e.Exp, e.Val)
	}
}

func (s *TextSink) Close() error { return s.err }

// BufferSink retains a copy of every event in memory; sweeps use one per
// point so per-point traces can be replayed into an output sink in input
// order regardless of worker scheduling, preserving byte determinism
// across -j settings.
type BufferSink struct {
	Events []Event
}

func (s *BufferSink) Event(e *Event) { s.Events = append(s.Events, *e) }
func (s *BufferSink) Close() error   { return nil }

// Replay feeds the buffered events into dst in recorded order.
func (s *BufferSink) Replay(dst Sink) {
	for i := range s.Events {
		dst.Event(&s.Events[i])
	}
}
