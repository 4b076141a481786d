package coherence

import (
	"testing"
	"unsafe"

	"rccsim/internal/config"
	"rccsim/internal/stats"
)

func TestMsgTypeStrings(t *testing.T) {
	types := []MsgType{GetS, Write, AtomicReq, Data, Renew, Ack, Inv, InvAck, FlushReq, FlushAck, PutS, WBAck}
	seen := map[string]bool{}
	for _, ty := range types {
		s := ty.String()
		if s == "" || seen[s] {
			t.Fatalf("bad MsgType string %q", s)
		}
		seen[s] = true
	}
	if MsgType(200).String() == "" {
		t.Fatal("unknown type should still print")
	}
}

func TestMsgClassMapping(t *testing.T) {
	cases := map[MsgType]stats.MsgClass{
		GetS:      stats.MsgReq,
		Write:     stats.MsgStData,
		AtomicReq: stats.MsgStData,
		Data:      stats.MsgLdData,
		Ack:       stats.MsgAckCtl,
		Renew:     stats.MsgRenewCt,
		Inv:       stats.MsgInvCtl,
		InvAck:    stats.MsgInvCtl,
		PutS:      stats.MsgInvCtl,
		WBAck:     stats.MsgInvCtl,
		FlushReq:  stats.MsgFlushCt,
		FlushAck:  stats.MsgFlushCt,
	}
	for ty, want := range cases {
		if got := ty.Class(); got != want {
			t.Errorf("%v.Class() = %v, want %v", ty, got, want)
		}
	}
}

func TestCarriesData(t *testing.T) {
	for _, ty := range []MsgType{Write, AtomicReq, Data} {
		if !ty.CarriesData() {
			t.Errorf("%v should carry data", ty)
		}
	}
	for _, ty := range []MsgType{GetS, Renew, Ack, Inv, InvAck, PutS, WBAck, FlushReq, FlushAck} {
		if ty.CarriesData() {
			t.Errorf("%v should not carry data", ty)
		}
	}
}

func TestFlits(t *testing.T) {
	cfg := config.Default()
	if got := Flits(&cfg, &Msg{Type: Data}); got != cfg.DataFlits() {
		t.Fatalf("data flits = %d", got)
	}
	if got := Flits(&cfg, &Msg{Type: Renew}); got != cfg.ControlFlits() {
		t.Fatalf("renew flits = %d", got)
	}
	if cfg.DataFlits() <= cfg.ControlFlits() {
		t.Fatal("data messages must be bigger than control")
	}
}

func TestAddressMapping(t *testing.T) {
	const parts, sets = 8, 128
	// Partition striping: consecutive lines hit consecutive partitions.
	for line := uint64(0); line < 64; line++ {
		if got := PartitionOf(line, parts); got != int(line%parts) {
			t.Fatalf("PartitionOf(%d) = %d", line, got)
		}
	}
	// Set index stays within bounds and distributes within a partition.
	seen := map[int]bool{}
	for line := uint64(0); line < 8*128*2; line += parts { // same partition
		idx := L2SetIndex(line, parts, sets)
		if idx < 0 || idx >= sets {
			t.Fatalf("set index %d out of range", idx)
		}
		seen[idx] = true
	}
	if len(seen) != sets {
		t.Fatalf("partition only used %d/%d sets", len(seen), sets)
	}
	if L1SetIndex(129, 64) != 1 {
		t.Fatal("L1SetIndex broken")
	}
	if L2NodeID(3, 16) != 19 {
		t.Fatal("L2NodeID broken")
	}
}

// TestRequestFitsACacheLine: SMs pool Requests in arrays and every L1
// reads them per access, so a Request must not straddle two 64-byte
// lines.
func TestRequestFitsACacheLine(t *testing.T) {
	if n := unsafe.Sizeof(Request{}); n > 64 {
		t.Errorf("Request is %d bytes, want <= 64", n)
	}
}
