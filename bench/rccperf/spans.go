package main

import (
	"encoding/json"
	"sort"
	"time"
)

// spanLog keeps, in memory, one span per timed call into the simulator
// (pass → run → Generate / sim.New / Run or the step loop, or
// ModelCheck). Every duration the benchmark reports is read from these
// spans, so timing and tracing are one mechanism; the log is written out
// only by a traced run.
type spanLog struct {
	origin time.Time
	spans  []callSpan
}

type callSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 for a pass
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span and returns its id.
func (l *spanLog) begin(name, label string, parent int) int {
	l.spans = append(l.spans, callSpan{
		ID: len(l.spans) + 1, Parent: parent, Name: name, Label: label,
		Start: int64(time.Since(l.origin)),
	})
	return len(l.spans)
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	s := &l.spans[id-1]
	s.End = int64(time.Since(l.origin))
	return time.Duration(s.End - s.Start)
}

// spanTotals is the time spent in all spans of one name; Self excludes
// the time covered by their child spans, which never overlap.
type spanTotals struct {
	Name  string `json:"name"`
	Count int    `json:"count"`
	Total int64  `json:"total_ns"`
	Self  int64  `json:"self_ns"`
}

// MarshalJSON writes the spans with per-name totals and self times.
func (l *spanLog) MarshalJSON() ([]byte, error) {
	byName := map[string]*spanTotals{}
	self := make([]int64, len(l.spans))
	for i, s := range l.spans {
		self[i] += s.End - s.Start
		if s.Parent > 0 {
			self[s.Parent-1] -= s.End - s.Start
		}
	}
	for i, s := range l.spans {
		t := byName[s.Name]
		if t == nil {
			t = &spanTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[i]
	}
	totals := make([]spanTotals, 0, len(byName))
	for _, t := range byName {
		totals = append(totals, *t)
	}
	sort.Slice(totals, func(i, j int) bool {
		if totals[i].Self != totals[j].Self {
			return totals[i].Self > totals[j].Self
		}
		return totals[i].Name < totals[j].Name
	})
	return json.Marshal(struct {
		Totals []spanTotals `json:"totals"`
		Spans  []callSpan   `json:"spans"`
	}{totals, l.spans})
}
