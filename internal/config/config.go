// Package config describes the simulated machine. The default values follow
// Table III of the paper (an NVIDIA GTX 480 / Fermi-class GPU): 16 SMs with
// 48 warps of 32 threads each, 32 KB 4-way L1s, a 1 MB 8-partition L2,
// crossbar interconnect with 32-bit flits, and GDDR timing parameters.
package config

import (
	"fmt"
	"strings"
)

// Protocol selects the coherence protocol (and implicitly which controller
// pair drives the L1s and L2 partitions).
type Protocol int

const (
	// MESI is the CPU-like directory protocol adapted to write-through
	// L1s — the paper's baseline ("MESI" in Figs 1, 8 and 9).
	MESI Protocol = iota
	// TCS is TC-Strong: physical-timestamp leases; stores stall at the L2
	// until the block's lease has expired. SC-capable.
	TCS
	// TCW is TC-Weak: stores complete immediately and return a global
	// write completion time (GWCT); fences stall until it passes. Not
	// SC-capable.
	TCW
	// RCC is Relativistic Cache Coherence (the paper's contribution):
	// logical-timestamp leases, instant write permissions, SC-capable.
	RCC
	// RCCWO is the weakly ordered RCC variant of Sec. III-F (separate
	// read/write logical views merged at fences).
	RCCWO
	// SCIdeal is the idealized SC machine of Fig. 1d: read and write
	// coherence permissions are acquired instantly (invalidations are
	// free and immediate); only the raw L2/DRAM round trips remain.
	SCIdeal
)

// Protocols returns every protocol, in the paper's figure order.
func Protocols() []Protocol {
	return []Protocol{MESI, TCS, TCW, RCC, RCCWO, SCIdeal}
}

// ParseProtocol maps a figure name ("RCC", "TCS", "MESI", "TCW",
// "RCC-WO", "SC-IDEAL"; case-insensitive) back to the Protocol.
func ParseProtocol(s string) (Protocol, error) {
	for _, p := range Protocols() {
		if strings.EqualFold(s, p.String()) {
			return p, nil
		}
	}
	return 0, fmt.Errorf("config: unknown protocol %q", s)
}

// String returns the name used in the paper's figures.
func (p Protocol) String() string {
	switch p {
	case MESI:
		return "MESI"
	case TCS:
		return "TCS"
	case TCW:
		return "TCW"
	case RCC:
		return "RCC"
	case RCCWO:
		return "RCC-WO"
	case SCIdeal:
		return "SC-IDEAL"
	}
	return fmt.Sprintf("Protocol(%d)", int(p))
}

// Consistency is the memory model enforced by the SM front end.
type Consistency int

const (
	// SC is the "naïve SC" of the paper: each warp issues global memory
	// operations one at a time, and local (scratchpad) operations stall
	// while a global access is outstanding. Fences are hardware no-ops.
	SC Consistency = iota
	// WO is weak ordering: warps may have many outstanding accesses;
	// FENCE instructions stall until the protocol's completion rule holds.
	WO
)

func (c Consistency) String() string {
	if c == SC {
		return "SC"
	}
	return "WO"
}

// Consistency returns the memory model each protocol is evaluated under in
// the paper: TCW and RCC-WO are weakly ordered, everything else runs SC.
func (p Protocol) Consistency() Consistency {
	if p == TCW || p == RCCWO {
		return WO
	}
	return SC
}

// SupportsSC reports whether the protocol can implement sequential
// consistency at all (Table I).
func (p Protocol) SupportsSC() bool { return p != TCW }

// StallFreeStores reports whether stores acquire write permissions without
// stalling (Table I).
func (p Protocol) StallFreeStores() bool {
	return p == RCC || p == RCCWO || p == TCW || p == SCIdeal
}

// VirtualChannels returns the number of virtual networks the protocol needs
// for deadlock freedom (5 for MESI, 2 otherwise — Table III). The count
// feeds the interconnect energy model.
func (p Protocol) VirtualChannels() int {
	if p == MESI || p == SCIdeal {
		return 5
	}
	return 2
}

// Scheduler selects the warp scheduling policy.
type Scheduler int

const (
	// LRR is loose round-robin (Table III's "loose round-robin").
	LRR Scheduler = iota
	// GTO is greedy-then-oldest: keep issuing from the last warp until
	// it stalls, then pick the oldest ready warp. Used for scheduler
	// sensitivity studies.
	GTO
)

func (s Scheduler) String() string {
	if s == GTO {
		return "GTO"
	}
	return "LRR"
}

// Config is the full machine description plus run parameters.
type Config struct {
	Protocol  Protocol
	Scheduler Scheduler

	// Cores (Table III "GPU cores").
	NumSMs     int // streaming multiprocessors
	WarpsPerSM int // resident warps per SM
	WarpWidth  int // threads per warp

	// L1 (per-core, write-through, write-no-allocate).
	L1Sets  int
	L1Ways  int
	L1MSHRs int

	// L2 (shared, write-back, address-interleaved across partitions).
	L2Partitions  int
	L2SetsPerPart int
	L2Ways        int
	L2MSHRs       int
	L2Latency     uint64 // tag+data access pipeline depth, core cycles

	// Local (scratchpad) access latency in core cycles.
	LocalLatency uint64

	// Interconnect: one crossbar per direction, 32-bit flits at 700 MHz,
	// several flit lanes per port (175 GB/s/direction aggregate), fixed
	// router pipeline latency.
	FlitBytes         int
	PortFlitsPerCycle int    // flits a port moves per core cycle
	NoCPipeLatency    uint64 // core cycles of router/wire pipeline per message

	// DRAM (per L2 partition; GDDR at 1:1 with the 1.4 GHz core clock).
	DRAMBanksPerPart int
	DRAMRowLines     int    // cache lines per row buffer
	DRAMtCL          uint64 // CAS latency
	DRAMtRP          uint64 // precharge
	DRAMtRCD         uint64 // RAS-to-CAS
	DRAMBusCycles    uint64 // data transfer occupancy per line (128 B at 8 B/cycle)
	DRAMPipeLatency  uint64 // fixed L2<->DRAM queue/pipe latency each way

	// Cache line geometry.
	LineBytes int

	// TC-Strong / TC-Weak fixed lease duration (physical cycles).
	TCLease uint64

	// RCC parameters (Sec. III-E).
	RCCMinLease     uint64 // predictor minimum (8)
	RCCMaxLease     uint64 // predictor maximum and initial prediction (2048)
	RCCFixedLease   uint64 // used when the predictor is disabled
	RCCRenew        bool   // lease-extension mechanism (+R)
	RCCPredictor    bool   // lease predictor (+P)
	RCCTSMax        uint64 // timestamp rollover threshold (2^32-1)
	RCCLivelockTick uint64 // advance now by 1 every N cycles (10,000)

	// Workload parameters.
	Seed  uint64
	Scale float64 // multiplies per-warp trace lengths (1.0 = full size)

	// MaxCycles aborts a run that exceeds this many cycles (a safety net
	// against protocol deadlocks; 0 means no limit).
	MaxCycles uint64

	// Shards is kept for compatibility only: every machine runs on one
	// goroutine, and Validate rejects any value but 0 and 1.
	//
	// Deprecated: sharded execution was removed. Leave the field zero.
	Shards int
}

// Default returns the Table III machine with the RCC protocol.
func Default() Config {
	return Config{
		Protocol:   RCC,
		NumSMs:     16,
		WarpsPerSM: 48,
		WarpWidth:  32,

		L1Sets:  64, // 32 KB / 128 B / 4 ways
		L1Ways:  4,
		L1MSHRs: 128,

		L2Partitions:  8,
		L2SetsPerPart: 128, // 128 KB / 128 B / 8 ways
		L2Ways:        8,
		L2MSHRs:       128,
		L2Latency:     260, // with the NoC round trip: ~340-cycle unloaded L2 latency [38]

		LocalLatency: 24,

		FlitBytes:         4,
		PortFlitsPerCycle: 4,
		NoCPipeLatency:    60,

		DRAMBanksPerPart: 8,
		DRAMRowLines:     16,
		DRAMtCL:          12,
		DRAMtRP:          12,
		DRAMtRCD:         12,
		DRAMBusCycles:    8, // 128 B at 16 B/core-cycle (175 GB/s peak)
		DRAMPipeLatency:  46,

		LineBytes: 128,

		TCLease: 400,

		RCCMinLease:     8,
		RCCMaxLease:     2048,
		RCCFixedLease:   64,
		RCCRenew:        true,
		RCCPredictor:    true,
		RCCTSMax:        (1 << 32) - 1,
		RCCLivelockTick: 10000,

		Seed:      1,
		Scale:     1.0,
		MaxCycles: 200_000_000,
	}
}

// Small returns a reduced machine (4 SMs x 8 warps, small caches, small
// traces) used by unit tests to keep runtimes short while still exercising
// every protocol path.
func Small() Config {
	c := Default()
	c.NumSMs = 4
	c.WarpsPerSM = 8
	c.L1Sets = 16
	c.L2Partitions = 2
	c.L2SetsPerPart = 32
	c.Scale = 0.12
	return c
}

// validateBounds checks every size and latency against its upper bound.
func (c Config) validateBounds() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"NumSMs", c.NumSMs}, {"WarpsPerSM", c.WarpsPerSM}, {"WarpWidth", c.WarpWidth},
		{"L1Sets", c.L1Sets}, {"L1Ways", c.L1Ways}, {"L1MSHRs", c.L1MSHRs},
		{"L2Partitions", c.L2Partitions}, {"L2SetsPerPart", c.L2SetsPerPart},
		{"L2Ways", c.L2Ways}, {"L2MSHRs", c.L2MSHRs}, {"PortFlitsPerCycle", c.PortFlitsPerCycle},
		{"DRAMBanksPerPart", c.DRAMBanksPerPart}, {"DRAMRowLines", c.DRAMRowLines},
	} {
		if f.v > maxCount {
			return fmt.Errorf("config: %s %d exceeds %d", f.name, f.v, maxCount)
		}
	}
	if c.LineBytes > maxBytes || c.FlitBytes > maxBytes {
		return fmt.Errorf("config: line/flit sizes %d/%d exceed %d bytes", c.LineBytes, c.FlitBytes, maxBytes)
	}
	if c.L1Sets*c.L1Ways > maxEntries || c.L2SetsPerPart*c.L2Ways > maxEntries {
		return fmt.Errorf("config: a tag array exceeds %d lines", maxEntries)
	}
	for _, f := range []struct {
		name string
		v    uint64
	}{
		{"L2Latency", c.L2Latency}, {"LocalLatency", c.LocalLatency},
		{"NoCPipeLatency", c.NoCPipeLatency},
		{"DRAMtCL", c.DRAMtCL}, {"DRAMtRP", c.DRAMtRP}, {"DRAMtRCD", c.DRAMtRCD},
		{"DRAMBusCycles", c.DRAMBusCycles}, {"DRAMPipeLatency", c.DRAMPipeLatency},
		{"TCLease", c.TCLease}, {"RCCLivelockTick", c.RCCLivelockTick},
	} {
		if f.v > maxLatency {
			return fmt.Errorf("config: %s %d exceeds %d cycles", f.name, f.v, maxLatency)
		}
	}
	return nil
}

// Consistency returns the memory model the configured protocol runs under.
func (c Config) Consistency() Consistency { return c.Protocol.Consistency() }

// ControlFlits returns the flit size of an address-only coherence message
// (8 bytes of header/address). It and DataFlits take a pointer receiver
// because the interconnect sizes every message with them, and a value
// receiver copies the whole Config per call even when inlined.
func (c *Config) ControlFlits() int { return (8 + c.FlitBytes - 1) / c.FlitBytes }

// DataFlits returns the flit size of a message carrying a full cache line
// (line plus 8 bytes of header/address).
func (c *Config) DataFlits() int { return (c.LineBytes + 8 + c.FlitBytes - 1) / c.FlitBytes }

// Upper bounds Validate enforces so that everything derived from an
// accepted config (array and ring sizes, flit counts, cycle arithmetic)
// stays far from overflow and from absurd allocations. Each is orders of
// magnitude past the Table III machine and every sweep.
const (
	maxCount   = 1 << 16 // SMs, warps, sets, ways, partitions, banks, MSHRs, flit lanes
	maxEntries = 1 << 24 // lines in one tag array
	maxBytes   = 1 << 16 // line and flit sizes
	maxLatency = 1 << 20 // any latency, lease or tick, in cycles
	maxScale   = 1e3
)

// Validate checks structural parameters and returns a descriptive error for
// the first problem found.
func (c Config) Validate() error {
	if err := c.validateBounds(); err != nil {
		return err
	}
	switch {
	case c.Protocol < MESI || c.Protocol > SCIdeal:
		return fmt.Errorf("config: unknown protocol %d", int(c.Protocol))
	case c.Scheduler != LRR && c.Scheduler != GTO:
		return fmt.Errorf("config: unknown scheduler %d", int(c.Scheduler))
	case c.NumSMs <= 0:
		return fmt.Errorf("config: NumSMs must be positive, got %d", c.NumSMs)
	case c.WarpsPerSM <= 0:
		return fmt.Errorf("config: WarpsPerSM must be positive, got %d", c.WarpsPerSM)
	case c.L1Sets <= 0 || c.L1Ways <= 0:
		return fmt.Errorf("config: L1 geometry invalid (%d sets x %d ways)", c.L1Sets, c.L1Ways)
	case c.L2Partitions <= 0 || c.L2SetsPerPart <= 0 || c.L2Ways <= 0:
		return fmt.Errorf("config: L2 geometry invalid (%d parts x %d sets x %d ways)",
			c.L2Partitions, c.L2SetsPerPart, c.L2Ways)
	case c.L1MSHRs <= 0 || c.L2MSHRs <= 0:
		return fmt.Errorf("config: MSHR counts must be positive")
	case c.LineBytes <= 0 || c.FlitBytes <= 0:
		return fmt.Errorf("config: line/flit sizes must be positive")
	case c.PortFlitsPerCycle <= 0:
		return fmt.Errorf("config: PortFlitsPerCycle must be positive, got %d", c.PortFlitsPerCycle)
	case c.DRAMBanksPerPart <= 0 || c.DRAMRowLines <= 0:
		return fmt.Errorf("config: DRAM geometry invalid (%d banks x %d-line rows)", c.DRAMBanksPerPart, c.DRAMRowLines)
	case (c.Protocol == MESI || c.Protocol == SCIdeal) && c.NumSMs > 64:
		// The directory's sharer set is a 64-bit full map.
		return fmt.Errorf("config: %v tracks at most 64 SMs, got %d", c.Protocol, c.NumSMs)
	case c.TCLease == 0:
		return fmt.Errorf("config: TCLease must be positive")
	case c.RCCMinLease == 0 || c.RCCMaxLease < c.RCCMinLease:
		return fmt.Errorf("config: RCC lease bounds invalid (%d..%d)", c.RCCMinLease, c.RCCMaxLease)
	case c.RCCMaxLease > c.RCCTSMax/4: // RCCTSMax < 4*RCCMaxLease, without the overflow
		return fmt.Errorf("config: RCCTSMax %d too small for max lease %d", c.RCCTSMax, c.RCCMaxLease)
	case !(c.Scale > 0) || c.Scale > maxScale: // also rejects NaN
		return fmt.Errorf("config: Scale must be in (0, %g], got %v", float64(maxScale), c.Scale)
	case c.Shards != 0 && c.Shards != 1:
		return fmt.Errorf("config: Shards=%d: sharded execution was removed; use 0 or 1 (sequential)", c.Shards)
	}
	return nil
}
