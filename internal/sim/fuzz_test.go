package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// fuzzProgram decodes data into a program for cfg, one byte per choice
// (zeros once data runs out): an SM count within two of cfg.NumSMs, then
// per SM a warp count up to cfg.WarpsPerSM+1, per warp up to 7
// instructions, each an op kind (one past the last is unknown), a line
// count (3 in 16 counts are cfg.WarpWidth+1), line offsets, a latency and
// a value, built with Program.Access whatever the op. Lines land on 16
// shared addresses, so warps contend.
func fuzzProgram(cfg config.Config, data []byte) *workload.Program {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	p := &workload.Program{SMs: make([][]workload.Trace, max(cfg.NumSMs-2+next()%5, 0))}
	for s := range p.SMs {
		warps := make([]workload.Trace, next()%(cfg.WarpsPerSM+2))
		for w := range warps {
			tr := make(workload.Trace, next()%8)
			for i := range tr {
				op := workload.OpKind(next() % 8)
				n := next() % 16
				if n >= 13 {
					n = cfg.WarpWidth + 1
				} else {
					n %= 3
				}
				lines := make([]uint64, n)
				for l := range lines {
					lines[l] = uint64(next() % 16)
				}
				lat := uint32(next())
				tr[i] = p.Access(op, uint64(next()), lines...)
				tr[i].Lat = lat
			}
			warps[w] = tr
		}
		p.SMs[s] = warps
	}
	return p
}

// FuzzProgramNew: a program decoded from arbitrary bytes is either
// rejected by workload.Program.Validate and sim.New with an error, or
// builds a machine that runs to completion or to a deadlock or MaxCycles
// error; nothing panics or hangs. proto and sched pick the protocol and
// the warp scheduler. The seeds in testdata/fuzz include a TCW program
// with one warp more than the SM holds, each warp storing then fencing,
// which panicked before New checked warps per SM, and an RCC message
// passing through two-line divergent stores and loads. Fuzz with
//
//	go test ./internal/sim -run '^$' -fuzz FuzzProgramNew -fuzztime 30s -parallel 1
func FuzzProgramNew(f *testing.F) {
	f.Fuzz(func(t *testing.T, proto, sched uint8, data []byte) {
		cfg := config.Small()
		protos := config.Protocols()
		cfg.Protocol = protos[int(proto)%len(protos)]
		cfg.Scheduler = config.Scheduler(sched % 2)
		cfg.MaxCycles = 50_000
		prog := fuzzProgram(cfg, data)
		verr := prog.Validate(cfg.WarpWidth)
		m, err := New(cfg, prog, nil)
		if verr != nil && err == nil {
			t.Fatalf("New accepted a program Validate rejects: %v", verr)
		}
		if err != nil {
			return
		}
		_, _ = m.Run() // a deadlock or MaxCycles error is an answer, not a fault
	})
}

// fuzzSeedsDigest is the SHA-256 of the programs fuzzProgram decodes from
// the seven original seeds in testdata/fuzz/FuzzProgramNew under
// config.Small, each preceded by its protocol and scheduler bytes (see
// TestFuzzSeedsDecodeStable).
const fuzzSeedsDigest = "410279ec24a7f4e0ca74e593810aba220376a0c60732805ea9b81eaf74459f01"

// readFuzzSeed parses a "go test fuzz v1" corpus file of FuzzProgramNew:
// two byte lines, then one []byte line.
func readFuzzSeed(t *testing.T, path string) (proto, sched uint8, data []byte) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 || lines[0] != "go test fuzz v1" {
		t.Fatalf("%s: not a three-value corpus file", path)
	}
	var bs [2]uint8
	for i, l := range lines[1:3] {
		v, _, _, err := strconv.UnquoteChar(strings.TrimSuffix(strings.TrimPrefix(l, "byte('"), "')"), '\'')
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		bs[i] = uint8(v)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[3], "[]byte("), ")"))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return bs[0], bs[1], []byte(s)
}

// TestFuzzSeedsDecodeStable pins the programs the original fuzz seeds
// decode into, read back through the trace accessors, so a change of the
// trace representation cannot silently change what the seeds test.
func TestFuzzSeedsDecodeStable(t *testing.T) {
	h := sha256.New()
	var buf []byte
	for _, name := range []string{"barrier-mismatch", "gto-empty-sms", "message-passing-rcc",
		"over-wide-tcw", "sm-count-mismatch", "too-many-lines", "unknown-op"} {
		proto, sched, data := readFuzzSeed(t, filepath.Join("testdata", "fuzz", "FuzzProgramNew", name))
		h.Write([]byte{proto, sched})
		p := fuzzProgram(config.Small(), data)
		buf = buf[:0]
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
		h.Write(buf)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != fuzzSeedsDigest {
		t.Fatalf("fuzz seed programs digest = %s, want %s", got, fuzzSeedsDigest)
	}
}
