package config

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"
)

func TestDefaultValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Small().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultMatchesTableIII(t *testing.T) {
	c := Default()
	if got := c.NumSMs; got != 16 {
		t.Errorf("NumSMs = %d, want 16", got)
	}
	if got := c.WarpsPerSM * c.WarpWidth; got != 48*32 {
		t.Errorf("threads per SM = %d, want 1536", got)
	}
	// 32 KB, 4-way, 128 B lines.
	if got := c.L1Sets * c.L1Ways * c.LineBytes; got != 32*1024 {
		t.Errorf("L1 size = %d, want 32768", got)
	}
	// 1 MB total L2 = 8 x 128 KB.
	if got := c.L2Partitions * c.L2SetsPerPart * c.L2Ways * c.LineBytes; got != 1024*1024 {
		t.Errorf("L2 size = %d, want 1 MiB", got)
	}
	if c.L2Partitions != 8 {
		t.Errorf("L2 partitions = %d, want 8", c.L2Partitions)
	}
}

func TestFlitSizes(t *testing.T) {
	c := Default()
	if got := c.ControlFlits(); got != 2 {
		t.Errorf("control flits = %d, want 2", got)
	}
	if got := c.DataFlits(); got != 34 {
		t.Errorf("data flits = %d, want 34", got)
	}
}

func TestProtocolTableI(t *testing.T) {
	// Table I: SC support and stall-free store permissions.
	cases := []struct {
		p           Protocol
		sc, nostall bool
	}{
		{MESI, true, false},
		{TCS, true, false},
		{TCW, false, true},
		{RCC, true, true},
		{RCCWO, true, true},
	}
	for _, tc := range cases {
		if tc.p.SupportsSC() != tc.sc {
			t.Errorf("%v SupportsSC = %v, want %v", tc.p, tc.p.SupportsSC(), tc.sc)
		}
		if tc.p.StallFreeStores() != tc.nostall {
			t.Errorf("%v StallFreeStores = %v, want %v", tc.p, tc.p.StallFreeStores(), tc.nostall)
		}
	}
}

func TestVirtualChannels(t *testing.T) {
	if MESI.VirtualChannels() != 5 {
		t.Error("MESI should need 5 VCs")
	}
	for _, p := range []Protocol{TCS, TCW, RCC, RCCWO} {
		if p.VirtualChannels() != 2 {
			t.Errorf("%v should need 2 VCs", p)
		}
	}
}

func TestConsistencyPerProtocol(t *testing.T) {
	for _, p := range []Protocol{MESI, TCS, RCC, SCIdeal} {
		if p.Consistency() != SC {
			t.Errorf("%v should run SC", p)
		}
	}
	for _, p := range []Protocol{TCW, RCCWO} {
		if p.Consistency() != WO {
			t.Errorf("%v should run WO", p)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.NumSMs = 0 },
		func(c *Config) { c.WarpsPerSM = -1 },
		func(c *Config) { c.L1Sets = 0 },
		func(c *Config) { c.L2Ways = 0 },
		func(c *Config) { c.L1MSHRs = 0 },
		func(c *Config) { c.LineBytes = 0 },
		func(c *Config) { c.PortFlitsPerCycle = 0 },
		func(c *Config) { c.DRAMBanksPerPart = 0 },
		func(c *Config) { c.DRAMRowLines = 0 },
		func(c *Config) { c.Protocol = MESI; c.NumSMs = 65 },
		func(c *Config) { c.Protocol = SCIdeal; c.NumSMs = 65 },
		func(c *Config) { c.TCLease = 0 },
		func(c *Config) { c.RCCMinLease = 0 },
		func(c *Config) { c.RCCMaxLease = 4 },
		func(c *Config) { c.RCCTSMax = 100 },
		func(c *Config) { c.Scale = 0 },
		func(c *Config) { c.Shards = 2 },
	}
	for i, m := range mutate {
		c := Default()
		m(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("mutation %d not caught by Validate", i)
		}
	}
	// Only the directory protocols' sharer map limits the SM count.
	c := Default()
	c.Protocol = RCC
	c.NumSMs = 65
	if err := c.Validate(); err != nil {
		t.Errorf("RCC with 65 SMs: %v", err)
	}
}

func TestProtocolStrings(t *testing.T) {
	want := map[Protocol]string{
		MESI: "MESI", TCS: "TCS", TCW: "TCW",
		RCC: "RCC", RCCWO: "RCC-WO", SCIdeal: "SC-IDEAL",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(p), p.String(), s)
		}
	}
	if Protocol(99).String() == "" {
		t.Error("unknown protocol should still print")
	}
}

// fuzzConfig applies data to Default() as a sequence of 9-byte edits:
// a selector byte picking a field of Config (in declaration order, modulo
// the field count) and 8 little-endian bytes for its new value, reduced
// to the field's kind. Trailing bytes short of an edit are ignored.
func fuzzConfig(data []byte) Config {
	c := Default()
	v := reflect.ValueOf(&c).Elem()
	for ; len(data) >= 9; data = data[9:] {
		f := v.Field(int(data[0]) % v.NumField())
		x := binary.LittleEndian.Uint64(data[1:9])
		switch f.Kind() {
		case reflect.Int:
			f.SetInt(int64(x))
		case reflect.Uint64:
			f.SetUint(x)
		case reflect.Float64:
			f.SetFloat(math.Float64frombits(x))
		case reflect.Bool:
			f.SetBool(x&1 == 1)
		}
	}
	return c
}

// FuzzConfigValidate: Validate never panics, and a config it accepts keeps
// the promises the machine builds on: positive flit sizes, a rollover
// guard band that does not underflow, a positive finite Scale, and sizes
// and latencies within Validate's bounds. Seeds in testdata/fuzz cover
// a valid edit, NaN and infinite scales, a lease that overflows 4×, an
// unknown protocol and a huge pipeline latency. Fuzz with
//
//	go test ./internal/config -run '^$' -fuzz FuzzConfigValidate -fuzztime 30s -parallel 1
func FuzzConfigValidate(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		c := fuzzConfig(data)
		if c.Validate() != nil {
			return
		}
		if c.ControlFlits() <= 0 || c.DataFlits() < c.ControlFlits() {
			t.Fatalf("accepted config has flit sizes %d/%d", c.ControlFlits(), c.DataFlits())
		}
		if c.RCCMaxLease > (c.RCCTSMax-2)/2 {
			t.Fatalf("accepted config's rollover guard underflows: TSMax %d, max lease %d", c.RCCTSMax, c.RCCMaxLease)
		}
		if math.IsNaN(c.Scale) || math.IsInf(c.Scale, 0) || c.Scale <= 0 {
			t.Fatalf("accepted config has Scale %v", c.Scale)
		}
		if c.NoCPipeLatency > maxLatency || c.NumSMs > maxCount || c.L2SetsPerPart*c.L2Ways > maxEntries {
			t.Fatalf("accepted config exceeds a bound: %+v", c)
		}
		if !slices.Contains(Protocols(), c.Protocol) {
			t.Fatalf("accepted unknown protocol %d", int(c.Protocol))
		}
	})
}
