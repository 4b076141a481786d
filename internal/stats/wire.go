// Stable wire encoding of Run for the run ledger and the model checker's
// state fingerprints. Ledger entries keep finished counter sets on disk
// across process lifetimes, so the encoding must be deterministic (same
// Run ⇒ same bytes, always), self-describing enough to reject foreign
// data, and automatically exhaustive: forgetting a field here would
// silently drop a counter from every recorded run.
//
// Run is, by construction, a tree of uint64 leaves (plain counters, fixed
// arrays of counters, and small structs of counters — see the package
// comment for why there are no pointers, maps, or atomics), so in memory
// it is a dense array of uint64 words in declaration order. The leaf
// count comes from a reflective walk of the type, done once at init, and
// init also checks that the struct's size is exactly eight bytes per leaf
// (no padding, no other field kinds). AppendWire then emits each word as
// 8 little-endian bytes with no per-leaf reflection, and AppendNonzero
// walks the same words, which matters because the model checker encodes
// the live counters at every fresh decision of every run; both let such
// hot callers reuse one buffer instead of allocating per encoding. The leaf count keeps the encoding
// self-extending — a new counter field changes the wire size, which the
// version-checked header turns into a clean decode error for stale bytes
// rather than a misaligned read — and TestWireCoversEveryField pins the
// exhaustiveness. DecodeWire is off the hot paths and keeps the
// reflective walk.
package stats

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"unsafe"
)

// wireMagic identifies a Run wire blob; wireVersion is bumped whenever the
// meaning (not just the set) of fields changes incompatibly. A field
// addition needs no bump: the leaf count in the header already diverges.
const (
	wireMagic   = "rccstats"
	wireVersion = 1
)

// wireLeaves counts the uint64 leaves of Run, fixed at init so encode and
// decode agree on the exact payload size.
var wireLeaves = countLeaves(reflect.TypeOf(Run{}))

// AppendWire reads Run as [wireLeaves]uint64. countLeaves has already
// rejected every non-uint64 leaf; a size of eight bytes per leaf then
// rules out padding, so word i is leaf i in declaration order.
func init() {
	if size := unsafe.Sizeof(Run{}); size != uintptr(8*wireLeaves) {
		panic(fmt.Sprintf("stats: Run is %d bytes, not a dense array of %d uint64 leaves", size, wireLeaves))
	}
}

// WireBytes renders r in the stable wire format: an 8-byte magic, a
// uint32 version, a uint32 leaf count, then every uint64 leaf of the
// struct in declaration order, little-endian.
func (r *Run) WireBytes() []byte {
	return r.AppendWire(make([]byte, 0, len(wireMagic)+8+8*wireLeaves))
}

// AppendWire appends the WireBytes encoding of r to dst and returns the
// extended slice.
func (r *Run) AppendWire(dst []byte) []byte {
	dst = append(dst, wireMagic...)
	dst = binary.LittleEndian.AppendUint32(dst, wireVersion)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(wireLeaves))
	n := len(dst)
	dst = slices.Grow(dst, 8*wireLeaves)[:n+8*wireLeaves]
	for i, w := range unsafe.Slice((*uint64)(unsafe.Pointer(r)), wireLeaves) {
		binary.LittleEndian.PutUint64(dst[n+8*i:], w)
	}
	return dst
}

// AppendNonzero appends the number of r's nonzero leaves as a uint32 and
// then, for each in declaration order, its leaf index (uint32) and value,
// little-endian. It carries the same counters as AppendWire's payload in a
// fraction of the bytes while most are zero, which is how the model
// checker's state fingerprint hashes them at every fresh decision.
func (r *Run) AppendNonzero(dst []byte) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	n := uint32(0)
	for i, w := range unsafe.Slice((*uint64)(unsafe.Pointer(r)), wireLeaves) {
		if w != 0 {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(i))
			dst = binary.LittleEndian.AppendUint64(dst, w)
			n++
		}
	}
	binary.LittleEndian.PutUint32(dst[at:], n)
	return dst
}

// DecodeWire parses bytes produced by WireBytes. It rejects wrong magic,
// version, leaf counts and trailing garbage, so corrupted or stale bytes
// surface as an error, never as skewed counters.
func DecodeWire(b []byte) (*Run, error) {
	hdr := len(wireMagic) + 8
	if len(b) < hdr || string(b[:len(wireMagic)]) != wireMagic {
		return nil, fmt.Errorf("stats: wire decode: bad magic")
	}
	if v := binary.LittleEndian.Uint32(b[len(wireMagic):]); v != wireVersion {
		return nil, fmt.Errorf("stats: wire decode: version %d, want %d", v, wireVersion)
	}
	if n := binary.LittleEndian.Uint32(b[len(wireMagic)+4:]); int(n) != wireLeaves {
		return nil, fmt.Errorf("stats: wire decode: %d leaves, want %d (Run shape changed)", n, wireLeaves)
	}
	if want := hdr + 8*wireLeaves; len(b) != want {
		return nil, fmt.Errorf("stats: wire decode: %d bytes, want %d", len(b), want)
	}
	r := New()
	readLeaves(b[hdr:], reflect.ValueOf(r).Elem())
	return r, nil
}

// WireDigest returns the hex SHA-256 of the wire encoding: a stable,
// comparable fingerprint of a finished run (round-trip tests, cache
// integrity checks, cross-process result comparison).
func (r *Run) WireDigest() string {
	sum := sha256.Sum256(r.WireBytes())
	return hex.EncodeToString(sum[:])
}

// readLeaves is the inverse walk: it fills v's uint64 leaves from b, which
// the caller has already length-checked.
func readLeaves(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Uint64:
		v.SetUint(binary.LittleEndian.Uint64(b))
		return b[8:]
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = readLeaves(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			b = readLeaves(b, v.Field(i))
		}
		return b
	}
	panic(fmt.Sprintf("stats: wire decoding: unsupported kind %v in Run", v.Kind()))
}

// countLeaves returns how many uint64 leaves t contains.
func countLeaves(t reflect.Type) int {
	switch t.Kind() {
	case reflect.Uint64:
		return 1
	case reflect.Array:
		return t.Len() * countLeaves(t.Elem())
	case reflect.Struct:
		n := 0
		for i := 0; i < t.NumField(); i++ {
			n += countLeaves(t.Field(i).Type)
		}
		return n
	}
	panic(fmt.Sprintf("stats: wire encoding: unsupported kind %v in Run", t.Kind()))
}
