package workload

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"rccsim/internal/config"
)

func TestValidateAcceptsGenerators(t *testing.T) {
	cfg := config.Small()
	for _, b := range All() {
		if err := b.Generate(cfg).Validate(cfg.WarpWidth); err != nil {
			t.Errorf("%s: %v", b.Name, err)
		}
	}
}

func TestValidateRejectsEmptyMemOp(t *testing.T) {
	p := &Program{SMs: [][]Trace{{{{Op: OpLoad}}}}}
	if err := p.Validate(32); err == nil || !strings.Contains(err.Error(), "no lines") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsOverwideAccess(t *testing.T) {
	p := &Program{}
	p.SMs = [][]Trace{{{p.Access(OpStore, 0, make([]uint64, 40)...)}}}
	if err := p.Validate(32); err == nil || !strings.Contains(err.Error(), "lanes") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsLinesOnCompute(t *testing.T) {
	p := &Program{}
	p.SMs = [][]Trace{{{p.Access(OpCompute, 0, 1)}}}
	if err := p.Validate(32); err == nil || !strings.Contains(err.Error(), "carries lines") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateRejectsMismatchedBarriers(t *testing.T) {
	p := &Program{SMs: [][]Trace{{
		{{Op: OpBarrier}},
		{{Op: OpCompute, Lat: 1}},
	}}}
	if err := p.Validate(32); err == nil || !strings.Contains(err.Error(), "barriers") {
		t.Fatalf("err = %v", err)
	}
}

func TestValidateAllowsEmptyWarps(t *testing.T) {
	p := &Program{SMs: [][]Trace{{
		{{Op: OpBarrier}},
		nil,
	}}}
	if err := p.Validate(32); err != nil {
		t.Fatalf("empty warp rejected: %v", err)
	}
}

func TestValidateDefaultWarpWidth(t *testing.T) {
	p := &Program{}
	p.SMs = [][]Trace{{{p.Access(OpLoad, 0, 1)}}}
	if err := p.Validate(0); err != nil {
		t.Fatal(err)
	}
}

// invalidRecords lists one malformed record per shape the encoding allows
// but Validate must reject, each checked alone in a one-warp program over
// a pool of four lines.
var invalidRecords = []struct {
	name, want string
	in         Instr
}{
	{"no lines on a load", "no lines", Instr{Op: OpLoad}},
	{"no lines on an atomic", "no lines", Instr{Op: OpAtomic, Val: 1}},
	{"more lines than lanes", "lanes", Instr{Op: OpStore, N: 33}},
	{"offset past the pool", "past the pool", Instr{Op: OpLoad, Line: 5, N: 2}},
	{"offset+N past the pool", "past the pool", Instr{Op: OpStore, Line: 3, N: 2}},
	{"offset wraps past the pool", "past the pool", Instr{Op: OpLoad, Line: ^uint64(0), N: 2}},
	{"lines on compute", "carries lines", Instr{Op: OpCompute, Lat: 1, N: 1}},
	{"lines on local", "carries lines", Instr{Op: OpLocal, N: 2}},
	{"lines on fence", "carries lines", Instr{Op: OpFence, N: 1}},
	{"lines on barrier", "carries lines", Instr{Op: OpBarrier, N: 1}},
	{"unknown op", "unknown op", Instr{Op: OpBarrier + 1}},
}

func TestValidateRejectsInvalidRecords(t *testing.T) {
	for _, c := range invalidRecords {
		p := &Program{SMs: [][]Trace{{{c.in}}}, Pool: Pool{1, 2, 3, 4}}
		if err := p.Validate(32); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want %q", c.name, err, c.want)
		}
	}
	// The edges just inside: an access ending at the pool's last line
	// and one as wide as the warp.
	p := &Program{SMs: [][]Trace{{{{Op: OpLoad, Line: 2, N: 2}, {Op: OpStore, N: 4}}}}, Pool: Pool{1, 2, 3, 4}}
	if err := p.Validate(4); err != nil {
		t.Fatalf("in-range divergent accesses rejected: %v", err)
	}
}

// TestInstrIsCompactAndPointerFree: a trace is a flat 24-byte-per-record
// array the garbage collector never scans.
func TestInstrIsCompactAndPointerFree(t *testing.T) {
	if n := unsafe.Sizeof(Instr{}); n > 24 {
		t.Errorf("Instr is %d bytes, want <= 24", n)
	}
	typ := reflect.TypeOf(Instr{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Bool, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		default:
			t.Errorf("Instr.%s is a %v, want a plain integer", f.Name, f.Type)
		}
	}
}

func TestAccessEncodesLines(t *testing.T) {
	p := &Program{}
	one := p.Access(OpLoad, 0, 7)
	if one.N != 1 || p.Pool.Line(&one, 0) != 7 || len(p.Pool) != 0 {
		t.Fatalf("single line: %+v, pool %v", one, p.Pool)
	}
	div := p.Access(OpStore, 9, 4, 5, 6)
	none := p.Access(OpLoad, 0)
	if div.N != 3 || div.Val != 9 || div.Op != OpStore {
		t.Fatalf("divergent: %+v", div)
	}
	for i, want := range []uint64{4, 5, 6} {
		if got := p.Pool.Line(&div, i); got != want {
			t.Fatalf("line %d = %d, want %d", i, got, want)
		}
	}
	if none.N != 0 {
		t.Fatalf("no lines: %+v", none)
	}
}
