package sim

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/workload"
)

// fuzzProgram decodes data into a program for cfg, one byte per choice
// (zeros once data runs out): an SM count within two of cfg.NumSMs, then
// per SM a warp count up to cfg.WarpsPerSM+1, per warp up to 7
// instructions, each an op kind (one past the last is unknown), a line
// count (3 in 16 counts are cfg.WarpWidth+1), line offsets, a latency and
// a value. Lines land on 16 shared addresses, so warps contend.
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
				in := workload.Instr{Op: workload.OpKind(next() % 8)}
				n := next() % 16
				if n >= 13 {
					n = cfg.WarpWidth + 1
				} else {
					n %= 3
				}
				for l := 0; l < n; l++ {
					in.Lines = append(in.Lines, uint64(next()%16))
				}
				in.Lat = uint32(next())
				in.Val = uint64(next())
				tr[i] = in
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
// which panicked before New checked warps per SM. Fuzz with
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
