// Package ledger is the append-only, content-addressed archive of
// benchmark and simulation runs that anchors the repo's perf trajectory.
//
// One Entry records everything a later regression hunt needs: repeat-level
// Go-benchmark samples (median ± MAD, not single aggregates), the complete
// stats.Run wire encoding of every simulation point (cycle-account vector
// included), span-waterfall percentiles, top-K contention lines, and a
// host fingerprint (CPU model, cores, GOMAXPROCS, Go version, kernel, git
// SHA) so cross-host numbers are flagged instead of silently compared.
//
// Storage is content-addressed and write-once: an entry's identity is the
// SHA-256 of its canonical JSON bytes, objects live under
// DIR/entries/<id>.json written atomically (temp + rename), and DIR/INDEX
// is an append-only log — one line per recorded run, in recording order —
// that defines the trajectory. Re-recording identical content appends a
// new INDEX line pointing at the same object; nothing is ever rewritten,
// so two processes sharing a ledger directory cannot corrupt each other.
//
// The diff layer (diff.go, cmd/rccdiff) consumes pairs of entries and
// attributes their delta hierarchically; this file is only the archive.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rccsim/internal/obs/span"
	"rccsim/internal/stats"
)

// Schema versions the Entry JSON layout. A decode of a higher schema than
// we understand is an error, not a guess.
const Schema = 1

// Entry kinds. They are informational (listing, filtering): every kind
// shares one layout.
const (
	KindBench   = "bench"   // repeat-level Go-benchmark record (bench_baseline.sh)
	KindRun     = "run"     // full simulation runs with wire stats (rccbench -ledger)
	KindSweep   = "sweep"   // sweep/fleet points (rccsweep -ledger)
	KindImport  = "import"  // historical BENCH_<n>.json snapshot (@0–@5 of the checked-in ledger)
	KindPlanted = "planted" // synthetic regression planted by rccdiff -plant (self-tests)
)

// Host fingerprints the recording machine. Throughput numbers are only
// comparable between entries whose fingerprints are Comparable; the diff
// layer flags everything else instead of comparing noise.
type Host struct {
	CPU        string `json:"cpu,omitempty"` // e.g. "AMD EPYC 7B13" (/proc/cpuinfo model name)
	Cores      int    `json:"cores,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	GoVersion  string `json:"go,omitempty"`
	OS         string `json:"os,omitempty"`
	Arch       string `json:"arch,omitempty"`
	Kernel     string `json:"kernel,omitempty"` // uname -r
	GitSHA     string `json:"git_sha,omitempty"`
}

// Comparable reports whether wall-clock performance numbers recorded on h
// and o can be meaningfully compared: every fingerprint field that is
// known on BOTH sides must match (git SHA excluded — comparing across
// commits is the whole point). Unknown-on-one-side fields are ignored so
// the imported entries @0–@5 (which only carried a uname string) still
// compare against each other.
func (h Host) Comparable(o Host) bool {
	same := func(a, b string) bool { return a == "" || b == "" || a == b }
	if !same(h.CPU, o.CPU) || !same(h.Kernel, o.Kernel) ||
		!same(h.OS, o.OS) || !same(h.Arch, o.Arch) || !same(h.GoVersion, o.GoVersion) {
		return false
	}
	if h.Cores != 0 && o.Cores != 0 && h.Cores != o.Cores {
		return false
	}
	return true
}

// String renders the fingerprint for tables and skip diagnostics.
func (h Host) String() string {
	parts := []string{}
	if h.CPU != "" {
		parts = append(parts, h.CPU)
	}
	if h.Cores != 0 {
		parts = append(parts, fmt.Sprintf("%d cores", h.Cores))
	}
	if h.Kernel != "" {
		parts = append(parts, h.Kernel)
	}
	if h.OS != "" || h.Arch != "" {
		parts = append(parts, strings.TrimSpace(h.OS+" "+h.Arch))
	}
	if len(parts) == 0 {
		return "unknown host"
	}
	return strings.Join(parts, ", ")
}

// Sample is one repeat of one Go benchmark: the primary ns/op plus every
// secondary metric the benchmark reported (simCycles/s, gpuCycles, B/op,
// allocs/op, ...).
type Sample struct {
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// BenchRec is one benchmark's repeat-level record. Samples preserve
// recording order; the diff layer reduces them to median ± MAD.
type BenchRec struct {
	Name       string   `json:"name"`
	Iterations int      `json:"iterations,omitempty"` // b.N per sample (informational)
	Samples    []Sample `json:"samples"`
}

// SpanQ is one span-waterfall percentile row (a flattened span.Quantiles).
type SpanQ struct {
	P50 uint64 `json:"p50"`
	P90 uint64 `json:"p90"`
	P99 uint64 `json:"p99"`
	Max uint64 `json:"max"`
}

// HeatLine is one top-K contention line, counters keyed by the stable
// obs.HeatMetric names.
type HeatLine struct {
	Line   uint64            `json:"line"`
	Total  uint64            `json:"total"`
	Err    uint64            `json:"err,omitempty"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// RunRec is one finished simulation point: its full counter set in the
// stable stats wire encoding (hex), plus the optional span-percentile and
// heat-line sketches when the producing run recorded them.
type RunRec struct {
	Label string           `json:"label"` // "bench/protocol[/-renew][/-pred]", or "bench/protocol@i" for sweep point i
	Stats string           `json:"stats"` // hex of stats.Run.WireBytes()
	Spans map[string]SpanQ `json:"spans,omitempty"`
	Heat  []HeatLine       `json:"heat,omitempty"`
}

// DecodeStats parses the record's wire-encoded counter set.
func (r *RunRec) DecodeStats() (*stats.Run, error) {
	b, err := hex.DecodeString(r.Stats)
	if err != nil {
		return nil, fmt.Errorf("ledger: run %q: %w", r.Label, err)
	}
	st, err := stats.DecodeWire(b)
	if err != nil {
		return nil, fmt.Errorf("ledger: run %q: %w", r.Label, err)
	}
	return st, nil
}

// SetStats stores st in the stable wire encoding.
func (r *RunRec) SetStats(st *stats.Run) {
	r.Stats = hex.EncodeToString(st.WireBytes())
}

// Entry is one archived run. The JSON layout is the canonical byte form:
// struct fields in declaration order, map keys sorted (encoding/json),
// no indentation — so identical content always yields identical bytes
// and therefore an identical ID.
type Entry struct {
	Schema     int        `json:"schema"`
	Kind       string     `json:"kind"`
	Label      string     `json:"label"`
	Time       string     `json:"time,omitempty"` // RFC3339 UTC; informational
	Host       Host       `json:"host"`
	Benchmarks []BenchRec `json:"benchmarks,omitempty"`
	Runs       []RunRec   `json:"runs,omitempty"`
}

// Canonical returns the canonical JSON bytes (the content that is hashed
// and stored).
func (e *Entry) Canonical() ([]byte, error) {
	if e.Schema == 0 {
		e.Schema = Schema
	}
	return json.Marshal(e)
}

// ID returns the entry's content address: hex SHA-256 of Canonical().
func (e *Entry) ID() (string, error) {
	b, err := e.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Bench returns the named benchmark record, or nil.
func (e *Entry) Bench(name string) *BenchRec {
	for i := range e.Benchmarks {
		if e.Benchmarks[i].Name == name {
			return &e.Benchmarks[i]
		}
	}
	return nil
}

// Run returns the labelled run record, or nil.
func (e *Entry) Run(label string) *RunRec {
	for i := range e.Runs {
		if e.Runs[i].Label == label {
			return &e.Runs[i]
		}
	}
	return nil
}

// DecodeEntry parses and validates canonical entry bytes.
func DecodeEntry(b []byte) (*Entry, error) {
	var e Entry
	if err := json.Unmarshal(b, &e); err != nil {
		return nil, fmt.Errorf("ledger: decode entry: %w", err)
	}
	if e.Schema > Schema {
		return nil, fmt.Errorf("ledger: entry schema %d newer than supported %d", e.Schema, Schema)
	}
	if e.Schema == 0 {
		return nil, fmt.Errorf("ledger: not a ledger entry (no schema field)")
	}
	return &e, nil
}

// IndexLine is one record of the append-only INDEX: the Seq-th recording
// event, pointing at object ID.
type IndexLine struct {
	Seq   int    `json:"seq"`
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	Label string `json:"label"`
}

// Ledger is one archive directory. All methods are safe for concurrent
// use within a process; cross-process appends are safe because objects
// are immutable and INDEX writes are single short O_APPEND lines.
type Ledger struct {
	dir string
	mu  sync.Mutex
}

// Open prepares (creating if needed) the ledger rooted at dir.
func Open(dir string) (*Ledger, error) {
	if dir == "" {
		return nil, fmt.Errorf("ledger: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "entries"), 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return &Ledger{dir: dir}, nil
}

// Dir returns the archive root.
func (l *Ledger) Dir() string { return l.dir }

func (l *Ledger) objectPath(id string) string {
	return filepath.Join(l.dir, "entries", id+".json")
}

func (l *Ledger) indexPath() string { return filepath.Join(l.dir, "INDEX") }

// Append records e: the canonical object is written (atomically, skipped
// if the identical content already exists) and one line is appended to
// INDEX. It returns the entry's content ID.
func (l *Ledger) Append(e *Entry) (string, error) {
	b, err := e.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	id := hex.EncodeToString(sum[:])

	l.mu.Lock()
	defer l.mu.Unlock()
	p := l.objectPath(id)
	if _, err := os.Stat(p); err != nil { // new content: write atomically
		tmp, err := os.CreateTemp(filepath.Dir(p), "append-*")
		if err != nil {
			return "", fmt.Errorf("ledger: %w", err)
		}
		_, werr := tmp.Write(b)
		if cerr := tmp.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			os.Remove(tmp.Name())
			return "", fmt.Errorf("ledger: %w", werr)
		}
		if err := os.Rename(tmp.Name(), p); err != nil {
			os.Remove(tmp.Name())
			return "", fmt.Errorf("ledger: %w", err)
		}
	}
	idx, err := l.Index()
	if err != nil {
		return "", err
	}
	f, err := os.OpenFile(l.indexPath(), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return "", fmt.Errorf("ledger: %w", err)
	}
	// Tab-separated so labels may contain spaces; labels may not contain
	// tabs or newlines (sanitized here, the only writer).
	label := strings.NewReplacer("\t", " ", "\n", " ").Replace(e.Label)
	_, werr := fmt.Fprintf(f, "%d\t%s\t%s\t%s\n", len(idx), id, e.Kind, label)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", fmt.Errorf("ledger: %w", werr)
	}
	return id, nil
}

// Index returns every INDEX line in recording order. Malformed lines
// (torn cross-process writes) are skipped, never fatal.
func (l *Ledger) Index() ([]IndexLine, error) {
	f, err := os.Open(l.indexPath())
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledger: %w", err)
	}
	defer f.Close()
	var out []IndexLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		parts := strings.SplitN(sc.Text(), "\t", 4)
		if len(parts) != 4 {
			continue
		}
		seq, err := strconv.Atoi(parts[0])
		if err != nil {
			continue
		}
		out = append(out, IndexLine{Seq: seq, ID: parts[1], Kind: parts[2], Label: parts[3]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	return out, nil
}

// Get loads the entry with the given (full) content ID and verifies its
// bytes against the address — a corrupted object is an error, never
// silently trusted.
func (l *Ledger) Get(id string) (*Entry, error) {
	b, err := os.ReadFile(l.objectPath(id))
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	sum := sha256.Sum256(b)
	if hex.EncodeToString(sum[:]) != id {
		return nil, fmt.Errorf("ledger: entry %s fails content verification", ShortID(id))
	}
	return DecodeEntry(b)
}

// Resolve maps a user-facing reference to a (id, entry) pair:
//
//	@N        the N-th INDEX line (0-based)
//	@-N       the N-th from the end (@-1 is the latest)
//	<hex...>  a unique content-ID prefix (>= 4 chars)
//
// File paths are the caller's business (see cmd/rccdiff, which also
// accepts entry JSON files).
func (l *Ledger) Resolve(ref string) (string, *Entry, error) {
	idx, err := l.Index()
	if err != nil {
		return "", nil, err
	}
	if strings.HasPrefix(ref, "@") {
		n, err := strconv.Atoi(ref[1:])
		if err != nil {
			return "", nil, fmt.Errorf("ledger: bad index reference %q", ref)
		}
		if n < 0 {
			n += len(idx)
		}
		if n < 0 || n >= len(idx) {
			return "", nil, fmt.Errorf("ledger: reference %q out of range (%d entries)", ref, len(idx))
		}
		e, err := l.Get(idx[n].ID)
		return idx[n].ID, e, err
	}
	if len(ref) < 4 {
		return "", nil, fmt.Errorf("ledger: ID prefix %q too short (need >= 4 hex chars)", ref)
	}
	var match string
	for _, line := range idx {
		if strings.HasPrefix(line.ID, ref) {
			if match != "" && match != line.ID {
				return "", nil, fmt.Errorf("ledger: ID prefix %q is ambiguous", ref)
			}
			match = line.ID
		}
	}
	if match == "" {
		return "", nil, fmt.Errorf("ledger: no entry matches %q", ref)
	}
	e, err := l.Get(match)
	return match, e, err
}

// ShortID abbreviates a content ID for display (12 hex chars).
func ShortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// Fingerprint gathers the recording host's fingerprint. Every probe is
// best-effort: a field that cannot be determined is left empty (and then
// ignored by Host.Comparable). gitDir anchors the git SHA probe ("" skips
// it).
func Fingerprint(gitDir string) Host {
	h := Host{
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		CPU:        cpuModel(),
	}
	if out, err := exec.Command("uname", "-r").Output(); err == nil {
		h.Kernel = strings.TrimSpace(string(out))
	}
	if gitDir != "" {
		cmd := exec.Command("git", "rev-parse", "--short", "HEAD")
		cmd.Dir = gitDir
		if out, err := cmd.Output(); err == nil {
			h.GitSHA = strings.TrimSpace(string(out))
		}
	}
	return h
}

// cpuModel reads the CPU model name from /proc/cpuinfo (Linux; empty
// elsewhere — the field is then ignored in comparability checks).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// Now returns the informational RFC3339 UTC timestamp for a new entry.
func Now() string { return time.Now().UTC().Format(time.RFC3339) }

// SpanPercentiles flattens a span summary into ledger rows: one per
// segment plus the end-to-end "total". Nil-safe on an empty summary.
func SpanPercentiles(s span.Summary) map[string]SpanQ {
	if s.Tracked == 0 {
		return nil
	}
	out := make(map[string]SpanQ, len(s.Segments)+1)
	out["total"] = SpanQ{P50: s.Total.P50, P90: s.Total.P90, P99: s.Total.P99, Max: s.Total.Max}
	for name, q := range s.Segments {
		out[name] = SpanQ{P50: q.P50, P90: q.P90, P99: q.P99, Max: q.Max}
	}
	return out
}

// Collector accumulates finished simulation points for one ledger entry.
// Observe hooks fire from worker goroutines in completion order; the
// collector keys by label and sorts on output, so the recorded entry is
// independent of -j scheduling. Runner labels are unique per point: figure
// points by their memo key, sweep points by their "@i" input index.
type Collector struct {
	mu   sync.Mutex
	runs map[string]*stats.Run
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{runs: map[string]*stats.Run{}}
}

// Observe records one finished point under its label. A nil st (failed
// point) is skipped. Re-observing a label keeps the first stats — the
// Runner's memo cache never emits a label twice, so this only guards
// against pathological callers.
func (c *Collector) Observe(label string, st *stats.Run) {
	if st == nil {
		return
	}
	c.mu.Lock()
	if _, ok := c.runs[label]; !ok {
		c.runs[label] = st
	}
	c.mu.Unlock()
}

// Len returns how many points have been collected.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.runs)
}

// RunRecs renders the collected points as sorted, wire-encoded records.
func (c *Collector) RunRecs() []RunRec {
	c.mu.Lock()
	defer c.mu.Unlock()
	labels := make([]string, 0, len(c.runs))
	for l := range c.runs {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]RunRec, 0, len(labels))
	for _, l := range labels {
		rec := RunRec{Label: l}
		rec.SetStats(c.runs[l])
		out = append(out, rec)
	}
	return out
}
