package resultcache

import (
	"crypto/sha256"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
)

func testRun() *stats.Run {
	st := stats.New()
	st.Cycles = 12345
	st.Instructions = 678
	st.MemOps = 90
	st.Flits[stats.MsgReq] = 11
	st.Latency[stats.OpLoad].Add(42)
	st.LatencyHist[stats.OpStore].Add(17)
	return st
}

func openTest(t *testing.T) *Cache {
	t.Helper()
	c, err := Open(t.TempDir(), "test-binary-digest")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPutGetRoundTrip(t *testing.T) {
	c := openTest(t)
	k := c.Key(config.Small(), "DLB")
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on empty cache")
	}
	want := testRun()
	if err := c.Put(k, want); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(k)
	if !ok {
		t.Fatal("miss after Put")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cache changed the stats:\n got  %+v\n want %+v", got, want)
	}
	if h, m, p := c.Hits(), c.Misses(), c.Puts(); h != 1 || m != 1 || p != 1 {
		t.Errorf("counters hits=%d misses=%d puts=%d, want 1/1/1", h, m, p)
	}
	if r := c.HitRatio(); r != 0.5 {
		t.Errorf("hit ratio %v, want 0.5", r)
	}
}

// entryFile locates the single on-disk entry for k.
func entryFile(t *testing.T, c *Cache, k Key) string {
	t.Helper()
	p := c.path(k)
	if _, err := os.Stat(p); err != nil {
		t.Fatalf("entry file: %v", err)
	}
	return p
}

// TestCorruptedEntryRecomputes is the satellite regression: a bad digest
// (or any malformed entry) must read as a miss with the file removed —
// recompute, not crash — and the slot must be reusable afterwards.
func TestCorruptedEntryRecomputes(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"payload flip": func(b []byte) []byte { b[len(b)-40] ^= 0x01; return b }, // inside payload, digest now mismatches
		"digest flip":  func(b []byte) []byte { b[len(b)-1] ^= 0x01; return b },
		"truncated":    func(b []byte) []byte { return b[:len(b)/2] },
		"bad magic":    func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad version":  func(b []byte) []byte { b[8] ^= 0xff; return b },
		"empty":        func([]byte) []byte { return nil },
		"wrapped length": func(b []byte) []byte {
			return wrappedLengthEntry(b[:len(entryMagic)+4])
		},
	}
	for name, mutate := range corruptions {
		t.Run(name, func(t *testing.T) {
			c := openTest(t)
			k := c.Key(config.Small(), "BH")
			if err := c.Put(k, testRun()); err != nil {
				t.Fatal(err)
			}
			p := entryFile(t, c, k)
			b, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(p, mutate(b), 0o644); err != nil {
				t.Fatal(err)
			}
			if st, ok := c.Get(k); ok {
				t.Fatalf("corrupted entry served as a hit: %+v", st)
			}
			if _, err := os.Stat(p); !os.IsNotExist(err) {
				t.Errorf("corrupted entry not removed (stat err: %v)", err)
			}
			// The slot must recover: recompute path is Put + Get.
			if err := c.Put(k, testRun()); err != nil {
				t.Fatal(err)
			}
			if _, ok := c.Get(k); !ok {
				t.Error("miss after re-Put over a corrupted slot")
			}
		})
	}
}

func TestKeyDerivation(t *testing.T) {
	c := openTest(t)
	base := config.Small()
	k := c.Key(base, "DLB")

	if k2 := c.Key(base, "DLB"); k2 != k {
		t.Error("key not deterministic")
	}
	if k2 := c.Key(base, "BH"); k2 == k {
		t.Error("benchmark not part of the key")
	}
	cfg := base
	cfg.Protocol = config.MESI
	if c.Key(cfg, "DLB") == k {
		t.Error("protocol not part of the key")
	}
	cfg = base
	cfg.Scale = base.Scale * 2
	if c.Key(cfg, "DLB") == k {
		t.Error("scale not part of the key")
	}
	cfg = base
	cfg.Seed = base.Seed + 1
	if c.Key(cfg, "DLB") == k {
		t.Error("seed not part of the key")
	}

	// The deprecated Shards field is normalized out, so its value never
	// changes a key.
	for _, shards := range []int{0, 1, 2, 8} {
		cfg = base
		cfg.Shards = shards
		if c.Key(cfg, "DLB") != k {
			t.Errorf("Shards=%d changed the key; the field is normalized out", shards)
		}
	}

	// A different binary digest must miss: behaviour changed.
	c2, err := Open(c.Dir(), "other-binary-digest")
	if err != nil {
		t.Fatal(err)
	}
	if c2.Key(base, "DLB") == k {
		t.Error("binary digest not part of the key")
	}
}

func TestCacheSharedAcrossOpens(t *testing.T) {
	dir := t.TempDir()
	c1, err := Open(dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	k := c1.Key(config.Small(), "DLB")
	if err := c1.Put(k, testRun()); err != nil {
		t.Fatal(err)
	}
	c2, err := Open(dir, "d")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := c2.Get(c2.Key(config.Small(), "DLB"))
	if !ok {
		t.Fatal("second Open missed an entry the first wrote")
	}
	if !reflect.DeepEqual(got, testRun()) {
		t.Error("entry changed across opens")
	}
}

func TestOpenRejectsBadInputs(t *testing.T) {
	if _, err := Open("", "d"); err == nil {
		t.Error("Open accepted empty dir")
	}
	if _, err := Open(t.TempDir(), ""); err == nil {
		t.Error("Open accepted empty binary digest")
	}
}

func TestEntryFanout(t *testing.T) {
	c := openTest(t)
	k := c.Key(config.Small(), "DLB")
	if err := c.Put(k, testRun()); err != nil {
		t.Fatal(err)
	}
	name := k.String()
	want := filepath.Join(c.Dir(), name[:2], name+".run")
	if _, err := os.Stat(want); err != nil {
		t.Errorf("entry not at fan-out path %s: %v", want, err)
	}
}

// wrappedLengthEntry returns a 40-byte entry with the given magic and
// version whose payload length field n makes header+n+digest wrap around
// to exactly 40 (n = 2^64-12 for the 20-byte header).
func wrappedLengthEntry(head []byte) []byte {
	const size = 40
	b := binary.LittleEndian.AppendUint64(append([]byte(nil), head...), uint64(size)-uint64(len(head)+8)-sha256.Size)
	return append(b, make([]byte, size-len(b))...)
}

// FuzzDecodeEntry checks that no byte string panics the entry decoder: a
// corrupt entry must come back as an error, which Get turns into a miss.
// The seed corpus in testdata/fuzz runs as an ordinary test; explore with
//
//	go test ./internal/resultcache -run '^$' -fuzz FuzzDecodeEntry -fuzztime 30s -parallel 1
func FuzzDecodeEntry(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		st, err := decodeEntry(b)
		if (st == nil) == (err == nil) {
			t.Fatalf("decodeEntry returned run %v with error %v", st, err)
		}
	})
}
