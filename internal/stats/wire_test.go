package stats

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"unsafe"
)

// appendLeavesRef is the reflective reference encoder: it walks v (a Run
// or one of its nested structs/arrays) in field/index order, appending
// each uint64 leaf. AppendWire must produce the same bytes.
func appendLeavesRef(buf []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Uint64:
		return binary.LittleEndian.AppendUint64(buf, v.Uint())
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			buf = appendLeavesRef(buf, v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			buf = appendLeavesRef(buf, v.Field(i))
		}
	}
	return buf
}

// TestAppendWireMatchesReflectiveWalk pins the flat word encoder to the
// reflective leaf walk on randomized counter sets, appended after a
// non-empty prefix so the offset arithmetic is exercised too.
func TestAppendWireMatchesReflectiveWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		r := New()
		var fill func(v reflect.Value)
		fill = func(v reflect.Value) {
			switch v.Kind() {
			case reflect.Uint64:
				v.SetUint(rng.Uint64() >> uint(rng.Intn(64)))
			case reflect.Array:
				for i := 0; i < v.Len(); i++ {
					fill(v.Index(i))
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					fill(v.Field(i))
				}
			}
		}
		fill(reflect.ValueOf(r).Elem())
		prefix := []byte("prefix")
		want := append([]byte(nil), prefix...)
		want = append(want, wireMagic...)
		want = binary.LittleEndian.AppendUint32(want, wireVersion)
		want = binary.LittleEndian.AppendUint32(want, uint32(wireLeaves))
		want = appendLeavesRef(want, reflect.ValueOf(r).Elem())
		if got := r.AppendWire(append([]byte(nil), prefix...)); !bytes.Equal(got, want) {
			t.Fatalf("run %d: AppendWire differs from the reflective walk:\n got  %x\n want %x", i, got, want)
		}
	}
}

// TestAppendNonzeroMatchesWire: AppendNonzero lists exactly the nonzero
// words of AppendWire's payload, with their indices, behind their count,
// on counter sets from empty to dense, after a non-empty prefix.
func TestAppendNonzeroMatchesWire(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	hdr := len(wireMagic) + 8
	for i := 0; i < 200; i++ {
		r := New()
		words := unsafeWords(r)
		for k := range words {
			if rng.Intn(200) < i {
				words[k] = rng.Uint64() >> uint(rng.Intn(64))
			}
		}
		dense := r.AppendWire(nil)[hdr:]
		got := r.AppendNonzero([]byte("prefix"))
		if string(got[:6]) != "prefix" {
			t.Fatalf("run %d: prefix overwritten", i)
		}
		want := binary.LittleEndian.AppendUint32(nil, 0)
		n := uint32(0)
		for k := 0; k < wireLeaves; k++ {
			if w := binary.LittleEndian.Uint64(dense[8*k:]); w != 0 {
				want = binary.LittleEndian.AppendUint32(want, uint32(k))
				want = binary.LittleEndian.AppendUint64(want, w)
				n++
			}
		}
		binary.LittleEndian.PutUint32(want, n)
		if !bytes.Equal(got[6:], want) {
			t.Fatalf("run %d: AppendNonzero differs from the wire payload:\n got  %x\n want %x", i, got[6:], want)
		}
	}
}

// BenchmarkAppendWire measures one encoding into a reused buffer.
func BenchmarkAppendWire(b *testing.B) {
	r := populated()
	buf := r.WireBytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = r.AppendWire(buf[:0])
	}
}

// populated builds a Run with every uint64 leaf set to a distinct non-zero
// value, so any dropped or reordered field shows up as a mismatch.
func populated() *Run {
	r := New()
	next := uint64(1)
	var fill func(v reflect.Value)
	fill = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Uint64:
			v.SetUint(next)
			next += 3
		case reflect.Array:
			for i := 0; i < v.Len(); i++ {
				fill(v.Index(i))
			}
		case reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				fill(v.Field(i))
			}
		}
	}
	fill(reflect.ValueOf(r).Elem())
	return r
}

func TestWireRoundTrip(t *testing.T) {
	for _, r := range []*Run{New(), populated()} {
		b := r.WireBytes()
		got, err := DecodeWire(b)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !reflect.DeepEqual(got, r) {
			t.Errorf("round trip changed the Run:\n got  %+v\n want %+v", got, r)
		}
		if b2 := got.WireBytes(); !bytes.Equal(b, b2) {
			t.Errorf("re-encode differs from original encoding")
		}
	}
}

// TestWireCoversEveryField is the exhaustiveness tripwire: perturbing any
// single uint64 leaf of Run must change both the encoding and the digest.
// A field the encoder somehow skipped (or a future non-uint64 field, which
// panics the leaf count at init) fails here, not in production.
func TestWireCoversEveryField(t *testing.T) {
	base := populated()
	baseBytes := base.WireBytes()
	baseDigest := base.WireDigest()

	// Walk the type to enumerate leaf locations, building closures that
	// re-resolve each location on a fresh copy and bump it by one.
	var leaves []func(*Run)
	var walk func(t reflect.Type, get func(reflect.Value) reflect.Value, path string)
	walk = func(ty reflect.Type, get func(reflect.Value) reflect.Value, path string) {
		switch ty.Kind() {
		case reflect.Uint64:
			g := get
			leaves = append(leaves, func(r *Run) {
				v := g(reflect.ValueOf(r).Elem())
				v.SetUint(v.Uint() + 1)
			})
		case reflect.Array:
			for i := 0; i < ty.Len(); i++ {
				i := i
				g := get
				walk(ty.Elem(), func(v reflect.Value) reflect.Value { return g(v).Index(i) }, path)
			}
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				i := i
				g := get
				walk(ty.Field(i).Type, func(v reflect.Value) reflect.Value { return g(v).Field(i) },
					path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(Run{}), func(v reflect.Value) reflect.Value { return v }, "Run")

	if len(leaves) != wireLeaves {
		t.Fatalf("test walk found %d leaves, encoder counts %d", len(leaves), wireLeaves)
	}
	for i, bump := range leaves {
		r := populated()
		bump(r)
		if bytes.Equal(r.WireBytes(), baseBytes) {
			t.Errorf("leaf %d: perturbation not visible in wire encoding", i)
		}
		if r.WireDigest() == baseDigest {
			t.Errorf("leaf %d: perturbation not visible in wire digest", i)
		}
	}
}

func TestWireRejectsCorruption(t *testing.T) {
	good := populated().WireBytes()

	for name, mutate := range map[string]func([]byte) []byte{
		"truncated":  func(b []byte) []byte { return b[:len(b)-5] },
		"trailing":   func(b []byte) []byte { return append(b, 0) },
		"bad magic":  func(b []byte) []byte { b[0] ^= 0xff; return b },
		"bad ver":    func(b []byte) []byte { b[len(wireMagic)] ^= 0xff; return b },
		"bad leaves": func(b []byte) []byte { b[len(wireMagic)+4] ^= 0xff; return b },
		"empty":      func([]byte) []byte { return nil },
	} {
		b := append([]byte(nil), good...)
		if _, err := DecodeWire(mutate(b)); err == nil {
			t.Errorf("%s: decode accepted corrupted bytes", name)
		}
	}
}

// A flipped payload byte is not caught by the header checks — the format
// carries no checksum, so a store of wire bytes guards their integrity
// itself (the run ledger addresses entries by content hash). But the
// bytes must still decode into *different* counters, never silently
// equal ones.
func TestWirePayloadFlipChangesDecode(t *testing.T) {
	r := populated()
	b := r.WireBytes()
	b[len(b)-1] ^= 0x01
	got, err := DecodeWire(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if reflect.DeepEqual(got, r) {
		t.Error("payload flip decoded to an identical Run")
	}
}

func TestWireDigestStableAndDistinct(t *testing.T) {
	a, b := populated(), populated()
	if a.WireDigest() != b.WireDigest() {
		t.Error("identical Runs produced different digests")
	}
	b.Cycles++
	if a.WireDigest() == b.WireDigest() {
		t.Error("different Runs produced identical digests")
	}
	if New().WireDigest() == a.WireDigest() {
		t.Error("zero Run digest collides with populated Run")
	}
}

// FuzzDecodeWire: arbitrary bytes either decode to a Run or return an
// error, never panic, and any input that decodes re-encodes to the same
// bytes. The seeds in testdata/fuzz are a valid run, a truncated run, a
// wrong leaf count and a bad magic. Fuzz with
//
//	go test ./internal/stats -run '^$' -fuzz FuzzDecodeWire -fuzztime 30s -parallel 1
func FuzzDecodeWire(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		r, err := DecodeWire(b)
		if (r == nil) == (err == nil) {
			t.Fatalf("DecodeWire returned run %v with error %v", r, err)
		}
		if err != nil {
			return
		}
		if got := r.WireBytes(); !bytes.Equal(got, b) {
			t.Fatalf("decoded run re-encodes to different bytes:\n in  %x\n out %x", b, got)
		}
	})
}

// unsafeWords views r as its wire leaves.
func unsafeWords(r *Run) []uint64 {
	return unsafe.Slice((*uint64)(unsafe.Pointer(r)), wireLeaves)
}
