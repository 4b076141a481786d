package layers

import (
	"testing"

	"rccsim/internal/coherence"
	"rccsim/internal/config"
	"rccsim/internal/mem"
	"rccsim/internal/noc"
	"rccsim/internal/sim"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
	"rccsim/internal/workload"
)

// Package-level sinks keep the compiler from removing measured calls.
var (
	sinkBool  bool
	sinkBytes []byte
	sinkRun   *stats.Run
	sinkProg  *workload.Program
)

// BenchmarkCalendar measures one Push and one PopReady of the event
// calendar at a steady in-flight depth of about 64 items, the NoC's
// unloaded delivery horizon.
func BenchmarkCalendar(b *testing.B) {
	var c timing.Calendar[int]
	c.Reserve(128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		now := timing.Cycle(i)
		c.Push(now+timing.Cycle(60+i%8), i)
		_, sinkBool = c.PopReady(now)
	}
}

// lineSet maps lines to the 64 sets of the Table III L1.
func lineSet(line uint64) int { return int(line % 64) }

// BenchmarkArrayLookup measures a hit in a full 64-set, 4-way array.
func BenchmarkArrayLookup(b *testing.B) {
	a := mem.NewArray[uint64](64, 4, lineSet)
	for l := uint64(0); l < 256; l++ {
		a.Allocate(l, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkBool = a.Lookup(uint64(i)%256) != nil
	}
}

// BenchmarkArrayAllocate measures an allocation that evicts the LRU way.
func BenchmarkArrayAllocate(b *testing.B) {
	a := mem.NewArray[uint64](64, 4, lineSet)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, sinkBool = a.Allocate(uint64(i), nil)
	}
}

// BenchmarkMSHRs measures Alloc, Get and Free of one entry in a
// 128-entry table kept half full.
func BenchmarkMSHRs(b *testing.B) {
	t := mem.NewMSHRs[[4]uint64](128, nil)
	for l := uint64(0); l < 64; l++ {
		t.Alloc(l << 20)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		line := uint64(i)*7 + 1
		t.Alloc(line)
		sinkBool = t.Get(line) != nil
		t.Free(line)
	}
}

// BenchmarkDRAM measures one request through a Table III channel:
// Submit, then the Tick and PopDone calls of the cycles until the next
// request, arriving every 16 cycles (half the channel's peak rate).
func BenchmarkDRAM(b *testing.B) {
	d := mem.NewDRAM(config.Default(), stats.New())
	var now timing.Cycle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d.Submit(mem.DRAMReq{Line: uint64(i) * 37, Write: i%4 == 0, ID: uint64(i)}, now)
		for end := now + 16; now < end; now++ {
			d.Tick(now)
			for {
				if _, ok := d.PopDone(now); !ok {
					break
				}
			}
		}
	}
}

// stubNode drops every delivery.
type stubNode struct{}

func (stubNode) Deliver(*coherence.Msg, timing.Cycle) {}

// BenchmarkNoC measures one Send and one cycle's Tick of the Table III
// crossbar, with one GETS injected per cycle from rotating SMs to
// rotating L2 partitions.
func BenchmarkNoC(b *testing.B) {
	cfg := config.Default()
	n := noc.New(cfg, stats.New())
	for id := 0; id < cfg.NumSMs+cfg.L2Partitions; id++ {
		n.Register(id, stubNode{})
	}
	// Delivered messages are never retained, and at most a few hundred
	// are in flight, so a ring of them can be reused.
	msgs := make([]coherence.Msg, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := &msgs[i%len(msgs)]
		*m = coherence.Msg{Type: coherence.GetS, Line: uint64(i), Src: i % cfg.NumSMs,
			Dst: coherence.L2NodeID(i%cfg.L2Partitions, cfg.NumSMs)}
		n.Send(m, timing.Cycle(i))
		sinkBool = n.Tick(timing.Cycle(i))
	}
}

// BenchmarkGenerate measures workload generation per Table IV kernel on
// the Table III machine.
func BenchmarkGenerate(b *testing.B) {
	cfg := config.Default()
	for _, bm := range workload.All() {
		b.Run(bm.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkProg = bm.Generate(cfg)
			}
		})
	}
}

// BenchmarkSimNew measures machine construction per protocol, on the
// Table III machine and on the small test machine.
func BenchmarkSimNew(b *testing.B) {
	kmn, _ := workload.ByName("KMN")
	for _, machine := range []struct {
		name string
		cfg  config.Config
	}{{"default", config.Default()}, {"small", config.Small()}} {
		prog := kmn.Generate(machine.cfg)
		for _, p := range config.Protocols() {
			b.Run(machine.name+"/"+p.String(), func(b *testing.B) {
				cfg := machine.cfg
				cfg.Protocol = p
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := sim.New(cfg, prog, nil); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkStatsWire measures encoding and decoding a run's counters.
func BenchmarkStatsWire(b *testing.B) {
	st := stats.New()
	st.Cycles, st.Instructions, st.L1Loads, st.DRAMReads = 123456, 654321, 1000, 77
	b.Run("WireBytes", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkBytes = st.WireBytes()
		}
	})
	b.Run("DecodeWire", func(b *testing.B) {
		wire := st.WireBytes()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r, err := stats.DecodeWire(wire)
			if err != nil {
				b.Fatal(err)
			}
			sinkRun = r
		}
	})
}
