package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"rccsim/internal/config"
)

// programIdentity is the SHA-256 of every generated program's decoded
// instruction stream for the twelve kernels under Table III and
// config.Small at seeds 1 and 2 (see TestProgramIdentity). It changes
// only when a generator emits a different program, never when the trace
// representation does.
const programIdentity = "2600d93bf62b23de11d25aa51340fe22c07a64f3c0fa180c7ad5c5f7f991358f"

// appendDecoded appends p's decoded stream: per SM, per warp, the trace
// length, then per instruction its op, line count, lines in order, value
// and latency.
func appendDecoded(buf []byte, p *Program) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(p.SMs)))
	for _, warps := range p.SMs {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(len(warps)))
		for _, tr := range warps {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(len(tr)))
			for i := range tr {
				in := &tr[i]
				buf = append(buf, byte(in.Op))
				buf = binary.LittleEndian.AppendUint64(buf, uint64(in.N))
				for j := 0; j < int(in.N); j++ {
					buf = binary.LittleEndian.AppendUint64(buf, p.Pool.Line(in, j))
				}
				buf = binary.LittleEndian.AppendUint64(buf, in.Val)
				buf = binary.LittleEndian.AppendUint32(buf, in.Lat)
			}
		}
	}
	return buf
}

// TestProgramIdentity pins what the generators emit, decoded through the
// trace accessors, so a change of representation that alters a program
// shows here.
func TestProgramIdentity(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, base := range []config.Config{config.Default(), config.Small()} {
		for _, seed := range []uint64{1, 2} {
			cfg := base
			cfg.Seed = seed
			for _, b := range All() {
				buf = appendDecoded(buf[:0], b.Generate(cfg))
				h.Write(buf)
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != programIdentity {
		t.Fatalf("program identity digest = %s, want %s", got, programIdentity)
	}
}
