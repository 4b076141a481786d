// Package resultcache is a content-addressed on-disk cache of finished
// simulation results: what makes rccsweep/rccbench -cache-dir runs
// resumable.
//
// A cache entry maps one simulation point — a (config, benchmark) pair —
// to its finished stats.Run. The key is
//
//	SHA-256("rccsim-point-v1" ‖ binary digest ‖ benchmark ‖ config digest)
//
// where the binary digest is the embedded golden stats digest
// (sim.GoldenDigest): a fingerprint of simulated *behaviour*, not of the
// source tree. Two consequences fall out of that choice:
//
//   - Sweeps are resumable and incremental. Re-running a sweep after a
//     refactor that keeps behaviour bit-identical (scheduler rewrites,
//     allocation pooling, observability) hits for every point; a change
//     that alters simulated cycles regenerates the golden digest and
//     cleanly invalidates everything.
//
//   - Cached results are safe to serve verbatim: simulations are
//     bit-deterministic per (config, benchmark), so replaying a cached
//     stats.Run is byte-identical to re-running the point.
//
// The config digest spans every Config field except the deprecated Shards,
// which is normalized out: every machine runs on the one sequential loop,
// and zeroing the field keeps keys equal to those of existing entries.
//
// Entries are written atomically (temp file + rename into place) and
// carry their own payload digest; a corrupted, truncated, or stale entry
// fails verification and reads as a miss — the point is recomputed and
// the bad file replaced, never trusted and never fatal.
package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"rccsim/internal/config"
	"rccsim/internal/stats"
)

// keyScheme versions the key derivation itself (not the entry format):
// bump it if the digest inputs or their framing ever change.
const keyScheme = "rccsim-point-v1"

// entryMagic heads every cache file; entryVersion the on-disk layout:
// magic ‖ version ‖ uint64 payload length ‖ payload ‖ SHA-256(payload).
const (
	entryMagic   = "rcccache"
	entryVersion = uint32(1)
)

// Key addresses one simulation point in the cache.
type Key [sha256.Size]byte

// String returns the hex form (also the on-disk file name).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// Cache is an on-disk result cache rooted at one directory. All methods
// are safe for concurrent use by multiple goroutines; concurrent use of
// one directory by multiple processes is safe too (writes are atomic
// renames of complete entries, reads verify content digests).
type Cache struct {
	dir       string
	binDigest string

	hits   atomic.Uint64
	misses atomic.Uint64
	puts   atomic.Uint64
}

// Open prepares a cache rooted at dir (created if absent), keying entries
// with the given binary behaviour digest — normally sim.GoldenDigest().
func Open(dir, binDigest string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultcache: empty cache directory")
	}
	if binDigest == "" {
		return nil, fmt.Errorf("resultcache: empty binary digest")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultcache: %w", err)
	}
	return &Cache{dir: dir, binDigest: binDigest}, nil
}

// Dir returns the cache root (resume hints, logs).
func (c *Cache) Dir() string { return c.dir }

// Key derives the content address of the (cfg, bench) point. Shards is
// normalized to zero first — see the package comment.
func (c *Cache) Key(cfg config.Config, bench string) Key {
	cfg.Shards = 0
	h := sha256.New()
	// Length-prefix each variable part so no two input splits collide.
	writePart := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	writePart(keyScheme)
	writePart(c.binDigest)
	writePart(bench)
	// %+v prints every field in declaration order — adding a Config field
	// changes the digest, which errs on the side of recomputing.
	writePart(fmt.Sprintf("%+v", cfg))
	var k Key
	h.Sum(k[:0])
	return k
}

// path places an entry under a two-hex-char fan-out directory.
func (c *Cache) path(k Key) string {
	name := k.String()
	return filepath.Join(c.dir, name[:2], name+".run")
}

// Get returns the cached stats for k, or (nil, false) on a miss. Any
// malformed entry — wrong magic or version, truncation, payload digest
// mismatch, undecodable stats — counts as a miss and is deleted so the
// recomputed point can replace it.
func (c *Cache) Get(k Key) (*stats.Run, bool) {
	p := c.path(k)
	b, err := os.ReadFile(p)
	if err != nil {
		c.misses.Add(1)
		return nil, false
	}
	st, err := decodeEntry(b)
	if err != nil {
		os.Remove(p) // corrupt: recompute, never crash
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return st, true
}

// Put stores st under k atomically: the entry is written to a temp file
// in the same directory and renamed into place, so concurrent readers
// (and other processes sharing the directory) only ever see complete,
// verified entries.
func (c *Cache) Put(k Key, st *stats.Run) error {
	p := c.path(k)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(p), "put-*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	_, werr := tmp.Write(encodeEntry(st))
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", werr)
	}
	if err := os.Rename(tmp.Name(), p); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: %w", err)
	}
	c.puts.Add(1)
	return nil
}

// Hits, Misses and Puts report this process's cache traffic (fleet
// metrics, the end-of-sweep summary line, tests).
func (c *Cache) Hits() uint64   { return c.hits.Load() }
func (c *Cache) Misses() uint64 { return c.misses.Load() }
func (c *Cache) Puts() uint64   { return c.puts.Load() }

// HitRatio returns hits / (hits + misses), or 0 before any lookup.
func (c *Cache) HitRatio() float64 {
	h, m := c.Hits(), c.Misses()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// encodeEntry frames st's wire bytes with the entry header and a trailing
// payload digest.
func encodeEntry(st *stats.Run) []byte {
	payload := st.WireBytes()
	sum := sha256.Sum256(payload)
	buf := make([]byte, 0, len(entryMagic)+4+8+len(payload)+len(sum))
	buf = append(buf, entryMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, entryVersion)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	buf = append(buf, sum[:]...)
	return buf
}

// decodeEntry verifies the framing and payload digest, then decodes the
// stats payload.
func decodeEntry(b []byte) (*stats.Run, error) {
	hdr := len(entryMagic) + 4 + 8
	if len(b) < hdr || string(b[:len(entryMagic)]) != entryMagic {
		return nil, fmt.Errorf("resultcache: bad entry magic")
	}
	if v := binary.LittleEndian.Uint32(b[len(entryMagic):]); v != entryVersion {
		return nil, fmt.Errorf("resultcache: entry version %d, want %d", v, entryVersion)
	}
	// Compare against the bytes actually present: hdr+n+digest would wrap
	// for a huge n and let a short entry through.
	n := binary.LittleEndian.Uint64(b[len(entryMagic)+4:])
	if len(b) < hdr+sha256.Size || n != uint64(len(b)-hdr-sha256.Size) {
		return nil, fmt.Errorf("resultcache: entry length mismatch")
	}
	payload := b[hdr : len(b)-sha256.Size]
	var want [sha256.Size]byte
	copy(want[:], b[len(b)-sha256.Size:])
	if sha256.Sum256(payload) != want {
		return nil, fmt.Errorf("resultcache: payload digest mismatch")
	}
	return stats.DecodeWire(payload)
}
