package mem

import (
	"testing"

	"rccsim/internal/config"
	"rccsim/internal/stats"
	"rccsim/internal/timing"
)

// TestDRAMTickOncePerCycleZero pins the one-command-per-cycle guard at
// cycle 0: lastTick's zero value used to alias cycle 0, so a second
// Tick(0) would issue a second command in the same cycle. The requests are
// placed on the bank queues directly so the opportunistic scheduling in
// Submit cannot issue them first.
func TestDRAMTickOncePerCycleZero(t *testing.T) {
	cfg := config.Small()
	d := NewDRAM(cfg, stats.New())
	if len(d.banks) < 2 {
		t.Fatalf("test needs >= 2 banks, config has %d", len(d.banks))
	}
	// Two ready requests on different (idle) banks: either could issue.
	d.enqueue(0, 0, 0, DRAMReq{Line: 1, ID: 1})
	d.enqueue(1, 0, 0, DRAMReq{Line: 2, ID: 2})
	if !d.Tick(0) {
		t.Fatal("first Tick(0) issued nothing")
	}
	if d.Tick(0) {
		t.Fatal("second Tick(0) issued a command in the same cycle")
	}
	if got := d.queued; got != 1 {
		t.Fatalf("queue has %d requests after one cycle, want 1", got)
	}
	// The next cycle may issue again.
	if !d.Tick(1) {
		t.Fatal("Tick(1) should issue the remaining request")
	}
}

// TestDRAMTickGuardLaterCycles checks the guard also dedupes repeated
// ticks away from cycle 0 and that distinct cycles still schedule.
func TestDRAMTickGuardLaterCycles(t *testing.T) {
	cfg := config.Small()
	d := NewDRAM(cfg, stats.New())
	d.enqueue(0, 0, 5, DRAMReq{Line: 1, ID: 1})
	d.enqueue(1, 0, 5, DRAMReq{Line: 2, ID: 2})
	if d.Tick(3) {
		t.Fatal("nothing should be schedulable before arrival")
	}
	if !d.Tick(5) || d.Tick(5) {
		t.Fatal("cycle 5 should issue exactly once")
	}
	if !d.Tick(6) {
		t.Fatal("cycle 6 should issue the second request")
	}
}

// refDRAM is the single-queue FR-FCFS channel the per-bank queues
// replaced, kept as the reference TestDRAMMatchesFIFOScan checks them
// against: one channel-wide FIFO slice, rescanned in full for every
// decision. Tracing and spans are left out; the scheduling is verbatim.
type refDRAM struct {
	cfg      config.Config
	banks    []dramBank
	busFree  timing.Cycle
	queue    []refPending
	done     timing.Queue[DRAMReq]
	st       *stats.Run
	rowLines uint64
	lastTick timing.Cycle
	nextTry  timing.Cycle
}

type refPending struct {
	req     DRAMReq
	bank    int
	row     uint64
	arrival timing.Cycle
}

func newRefDRAM(cfg config.Config, st *stats.Run) *refDRAM {
	return &refDRAM{
		cfg:      cfg,
		banks:    make([]dramBank, cfg.DRAMBanksPerPart),
		st:       st,
		rowLines: uint64(cfg.DRAMRowLines),
		lastTick: timing.Never,
	}
}

func (d *refDRAM) Submit(req DRAMReq, now timing.Cycle) {
	row := req.Line / d.rowLines
	bank := int(row % uint64(len(d.banks)))
	arrival := now + timing.Cycle(d.cfg.DRAMPipeLatency)
	d.queue = append(d.queue, refPending{req: req, bank: bank, row: row / uint64(len(d.banks)), arrival: arrival})
	if t := timing.Max(arrival, d.banks[bank].busyUntil); d.nextTry > 0 && t < d.nextTry {
		d.nextTry = t
	}
	d.schedule(now)
}

func (d *refDRAM) Tick(now timing.Cycle) bool {
	if now == d.lastTick {
		return false
	}
	d.lastTick = now
	return d.schedule(now)
}

func (d *refDRAM) schedule(now timing.Cycle) bool {
	if d.nextTry > now {
		return false
	}
	pick := -1
	pickHit := false
	earliest := timing.Never
	for i := range d.queue {
		p := &d.queue[i]
		b := &d.banks[p.bank]
		if p.arrival > now || b.busyUntil > now {
			if t := timing.Max(p.arrival, b.busyUntil); t < earliest {
				earliest = t
			}
			continue
		}
		hit := b.hasOpen && b.openRow == p.row
		if hit && !pickHit {
			pick = i
			pickHit = true
			break
		}
		if pick == -1 {
			pick = i
		}
	}
	if pick == -1 {
		d.nextTry = earliest
		return false
	}
	d.nextTry = 0
	p := d.queue[pick]
	d.queue = append(d.queue[:pick], d.queue[pick+1:]...)
	b := &d.banks[p.bank]
	var access timing.Cycle
	if b.hasOpen && b.openRow == p.row {
		access = timing.Cycle(d.cfg.DRAMtCL)
		d.st.DRAMRowHits++
	} else {
		access = timing.Cycle(d.cfg.DRAMtRP + d.cfg.DRAMtRCD + d.cfg.DRAMtCL)
		d.st.DRAMRowMisses++
		b.hasOpen = true
		b.openRow = p.row
	}
	dataStart := timing.Max(now+access, d.busFree)
	dataEnd := dataStart + timing.Cycle(d.cfg.DRAMBusCycles)
	d.busFree = dataEnd
	b.busyUntil = dataEnd
	d.done.Push(dataEnd+timing.Cycle(d.cfg.DRAMPipeLatency), p.req)
	return true
}

func (d *refDRAM) NextEvent() timing.Cycle {
	next := d.done.NextReady()
	if len(d.queue) == 0 {
		return next
	}
	if d.nextTry > 0 {
		return timing.Min(next, d.nextTry)
	}
	for i := range d.queue {
		p := &d.queue[i]
		next = timing.Min(next, timing.Max(p.arrival, d.banks[p.bank].busyUntil))
	}
	return next
}

func (d *refDRAM) Pending() int { return len(d.queue) + d.done.Len() }

// TestDRAMMatchesFIFOScan drives the per-bank channel and the single-queue
// reference with the same random Submit/Tick stream and requires identical
// behaviour every cycle: Tick results, the completion stream (line, ID and
// cycle), NextEvent, Pending and the row hit/miss counters. Submits come
// in bursts so queues reach 50+ requests, lines span three rows per bank
// so row hits and conflicts both occur, and the clock sometimes jumps to
// NextEvent (as the machine's run loop does) and sometimes ticks twice in
// one cycle.
func TestDRAMMatchesFIFOScan(t *testing.T) {
	cfg := config.Default()
	stGot, stRef := stats.New(), stats.New()
	d, ref := NewDRAM(cfg, stGot), newRefDRAM(cfg, stRef)
	r := timing.NewRNG(21)
	lines := uint64(cfg.DRAMRowLines * cfg.DRAMBanksPerPart * 3)
	now := timing.Cycle(0)
	id, peak := uint64(0), 0
	for step := 0; step < 60000; step++ {
		n := 0
		switch {
		case r.Bool(0.003):
			n = 10 + r.Intn(50)
		case r.Bool(0.03):
			n = 1
		}
		for ; n > 0; n-- {
			id++
			req := DRAMReq{Line: r.Uint64n(lines), Write: r.Bool(0.3), ID: id}
			d.Submit(req, now)
			ref.Submit(req, now)
		}
		if d.queued > peak {
			peak = d.queued
		}
		for k := 1 + r.Intn(2); k > 0; k-- {
			if got, want := d.Tick(now), ref.Tick(now); got != want {
				t.Fatalf("cycle %d: Tick = %v, reference %v", now, got, want)
			}
		}
		for {
			got, gok := d.PopDone(now)
			want, wok := ref.done.PopReady(now)
			if gok != wok || got != want {
				t.Fatalf("cycle %d: PopDone = %+v, %v; reference %+v, %v", now, got, gok, want, wok)
			}
			if !gok {
				break
			}
		}
		next := d.NextEvent()
		if want := ref.NextEvent(); next != want {
			t.Fatalf("cycle %d: NextEvent = %d, reference %d", now, next, want)
		}
		if got, want := d.Pending(), ref.Pending(); got != want {
			t.Fatalf("cycle %d: Pending = %d, reference %d", now, got, want)
		}
		if stGot.DRAMRowHits != stRef.DRAMRowHits || stGot.DRAMRowMisses != stRef.DRAMRowMisses {
			t.Fatalf("cycle %d: row hits/misses %d/%d, reference %d/%d", now,
				stGot.DRAMRowHits, stGot.DRAMRowMisses, stRef.DRAMRowHits, stRef.DRAMRowMisses)
		}
		if r.Bool(0.2) && next != timing.Never && next > now {
			now = next
		} else {
			now += 1 + timing.Cycle(r.Intn(3))
		}
	}
	if peak < 50 {
		t.Fatalf("bank queues peaked at %d requests, want 50+", peak)
	}
	if stGot.DRAMRowHits < 1000 || stGot.DRAMRowMisses < 1000 {
		t.Fatalf("only %d row hits and %d misses: stream does not mix them", stGot.DRAMRowHits, stGot.DRAMRowMisses)
	}
}

// TestDRAMRejectsOutOfOrderSubmit checks that a Submit whose arrival falls
// before the last request queued on the same bank panics instead of
// breaking the bank queue's arrival order.
func TestDRAMRejectsOutOfOrderSubmit(t *testing.T) {
	d := NewDRAM(config.Default(), stats.New())
	d.Submit(DRAMReq{Line: 0, ID: 1}, 100) // arrives at 100+pipe, stays queued
	defer func() {
		if recover() == nil {
			t.Fatal("Submit at an earlier cycle on the same bank did not panic")
		}
	}()
	d.Submit(DRAMReq{Line: 1, ID: 2}, 50)
}
