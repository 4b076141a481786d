package check

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/core"
)

// mcFamily returns the pinned 72-program family the CI sweep exhausts,
// every ninth member under -short or the race detector.
func mcFamily() []*Prog {
	fam := EnumFamily(FamilyShape{SMs: 2, WarpsPerSM: 1, OpsPerThread: 2, Lines: 2})
	if !testing.Short() && !raceEnabled {
		return fam
	}
	var sub []*Prog
	for i := 0; i < len(fam); i += 9 {
		sub = append(sub, fam[i])
	}
	return sub
}

// modelCheckHashed runs one exploration with the driver's fingerprint
// hash replaced by hash, and reports how many runs were pruned.
func modelCheckHashed(t *testing.T, p *Prog, opts MCOptions, hash func([]byte) mcFP) (*MCResult, int) {
	t.Helper()
	d, err := newMCDriver(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	d.hash = hash
	res, err := d.run()
	if err != nil {
		t.Fatal(err)
	}
	return res, d.pruned
}

// TestMCLazyFingerprintMatchesGraph pins that fingerprinting only fresh
// decisions explores exactly what fingerprinting every decision and
// terminal does: with the graph recorded (every state hashed) and without
// it, each exploration of the family under MESI, TCS and RCC, and of the
// planted weaken-lease witness, gives the same counts, outcome sets and
// counterexample. Without the graph, each fingerprint is either a new
// state or the prune that ends its run, so a return to hashing replayed
// or post-prune decisions fails the call count.
func TestMCLazyFingerprintMatchesGraph(t *testing.T) {
	compare := func(name string, p *Prog, proto config.Protocol) *MCResult {
		t.Helper()
		opts := DefaultMCOptions()
		opts.Protocol = proto
		eager, _ := modelCheckHashed(t, p, opts, hash128)
		calls := 0
		opts.Graph = false
		lazy, pruned := modelCheckHashed(t, p, opts, func(b []byte) mcFP {
			calls++
			return hash128(b)
		})
		if eager.Runs != lazy.Runs || eager.States != lazy.States || eager.MaxDepth != lazy.MaxDepth || eager.Failures != lazy.Failures {
			t.Fatalf("%s %v: graph on (%d runs, %d states, depth %d, %d failures) vs off (%d, %d, %d, %d)",
				name, p, eager.Runs, eager.States, eager.MaxDepth, eager.Failures,
				lazy.Runs, lazy.States, lazy.MaxDepth, lazy.Failures)
		}
		if !reflect.DeepEqual(eager.Outcomes, lazy.Outcomes) {
			t.Fatalf("%s %v: outcome sets differ with the graph on and off:\n%v\n%v", name, p, eager.Outcomes, lazy.Outcomes)
		}
		if !reflect.DeepEqual(eager.Failure, lazy.Failure) {
			t.Fatalf("%s %v: counterexamples differ with the graph on and off:\n%v\n%v", name, p, eager.Failure, lazy.Failure)
		}
		if calls != lazy.States+pruned {
			t.Fatalf("%s %v: %d fingerprints without the graph, want %d states + %d pruned runs",
				name, p, calls, lazy.States, pruned)
		}
		return lazy
	}
	for _, proto := range mcProtocols {
		for _, p := range mcFamily() {
			compare(proto.String()+" family", p, proto)
		}
	}
	defer core.WeakenLeaseCheckForTest(1 << 40)()
	if res := compare("RCC weakened lease", LeaseWitnessProg(), config.RCC); res.Failure == nil {
		t.Fatal("planted lease bug not found")
	}
}

// refFP is the reference fingerprint: the full SHA-256 of the image.
func refFP(b []byte) [32]byte { return sha256.Sum256(b) }

// TestMCHashMatchesReference is the collision check for hash128: over
// every image the family's explorations fingerprint under MESI, TCS and
// RCC with the graph recorded (every decision, replayed prefixes and
// terminals included), hash128 and SHA-256 must partition the images
// identically — equal hash128 values exactly when the SHA-256 digests are
// equal, a bijection between the two sets of values.
func TestMCHashMatchesReference(t *testing.T) {
	fwd := make(map[mcFP][32]byte)
	back := make(map[[32]byte]mcFP)
	images := 0
	for _, proto := range mcProtocols {
		opts := DefaultMCOptions()
		opts.Protocol = proto
		for _, p := range mcFamily() {
			modelCheckHashed(t, p, opts, func(b []byte) mcFP {
				images++
				h, r := hash128(b), refFP(b)
				if prev, ok := fwd[h]; ok && prev != r {
					t.Fatalf("%v %v: hash128 %x collides for images with SHA-256 %x and %x", proto, p, h[:], prev, r)
				}
				if prev, ok := back[r]; ok && prev != h {
					t.Fatalf("%v %v: SHA-256 %x maps to hash128 %x and %x", proto, p, r, prev[:], h[:])
				}
				fwd[h], back[r] = r, h
				return h
			})
		}
	}
	if len(fwd) != len(back) {
		t.Fatalf("%d hash128 values for %d distinct images", len(fwd), len(back))
	}
	t.Logf("%d fingerprinted images, %d distinct, no hash128 collision", images, len(fwd))
}

// TestHash128 pins hash128's values, so the graph's node ids stay stable
// from build to build, and checks that inputs differing only in length or
// in the tail past the last full block hash apart.
func TestHash128(t *testing.T) {
	seq := make([]byte, 40)
	for i := range seq {
		seq[i] = byte(i)
	}
	for _, c := range []struct {
		n    int
		want string
	}{
		{16, "303f9091b524494445e82f76566490ab"},
		{40, "705d05819f83aa8379166b5dc623a71a"},
	} {
		if h := hash128(seq[:c.n]); fmt.Sprintf("%x", h[:]) != c.want {
			t.Errorf("hash128 of bytes 0..%d = %x, want %s", c.n-1, h[:], c.want)
		}
	}
	zeros := make([]byte, 64)
	seen := make(map[mcFP]int)
	for n := 0; n <= len(zeros); n++ {
		h := hash128(zeros[:n])
		if m, ok := seen[h]; ok {
			t.Fatalf("hash128 of %d and %d zero bytes collide: %x", m, n, h[:])
		}
		seen[h] = n
	}
	a := []byte("0123456789abcdefXYZ")
	b := []byte("0123456789abcdefXYz")
	if hash128(a) == hash128(b) {
		t.Fatal("hash128 ignores the bytes past the last full block")
	}
}

var hashSink mcFP

// BenchmarkFingerprintHash times hash128 against SHA-256 on a
// state-image-sized input that, like the image, is mostly zero.
func BenchmarkFingerprintHash(b *testing.B) {
	img := make([]byte, 1400)
	for i := range img {
		if i%16 == 0 {
			img[i] = byte(i)
		}
	}
	b.Run("hash128", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			hashSink = hash128(img)
		}
	})
	b.Run("sha256", func(b *testing.B) {
		b.SetBytes(int64(len(img)))
		for i := 0; i < b.N; i++ {
			r := refFP(img)
			copy(hashSink[:], r[:])
		}
	})
}
