package timing

import (
	"cmp"
	"slices"
	"testing"
	"testing/quick"
)

func TestMinMax(t *testing.T) {
	if Min(3, 5) != 3 || Min(5, 3) != 3 {
		t.Fatal("Min broken")
	}
	if Max(3, 5) != 5 || Max(5, 3) != 5 {
		t.Fatal("Max broken")
	}
	if Min(Never, 7) != 7 {
		t.Fatal("Min with Never broken")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced stuck stream")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Intn(13)
		if v < 0 || v >= 13 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(1)
	child := parent.Fork()
	// The child must be deterministic given the parent state.
	parent2 := NewRNG(1)
	child2 := parent2.Fork()
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatal("forked streams not deterministic")
		}
	}
}

func TestQueueOrdering(t *testing.T) {
	var q Queue[int]
	q.Push(30, 3)
	q.Push(10, 1)
	q.Push(20, 2)
	if q.NextReady() != 10 {
		t.Fatalf("NextReady = %d, want 10", q.NextReady())
	}
	if _, ok := q.PopReady(5); ok {
		t.Fatal("popped before ready")
	}
	v, ok := q.PopReady(100)
	if !ok || v != 1 {
		t.Fatalf("pop1 = %d,%v", v, ok)
	}
	v, _ = q.PopReady(100)
	if v != 2 {
		t.Fatalf("pop2 = %d", v)
	}
	v, _ = q.PopReady(100)
	if v != 3 {
		t.Fatalf("pop3 = %d", v)
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty")
	}
	if q.NextReady() != Never {
		t.Fatal("empty queue NextReady != Never")
	}
}

func TestQueueFIFOTiebreak(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 50; i++ {
		q.Push(7, i)
	}
	for i := 0; i < 50; i++ {
		v, ok := q.PopReady(7)
		if !ok || v != i {
			t.Fatalf("tiebreak order broken: got %d want %d", v, i)
		}
	}
}

func TestQueuePropertySorted(t *testing.T) {
	// Property: popping everything yields a non-decreasing ready order.
	f := func(times []uint16) bool {
		var q Queue[Cycle]
		for _, tm := range times {
			q.Push(Cycle(tm), Cycle(tm))
		}
		prev := Cycle(0)
		for q.Len() > 0 {
			v, ok := q.PopReady(Never - 1)
			if !ok || v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestQueueInterleavedPushPop(t *testing.T) {
	var q Queue[int]
	r := NewRNG(3)
	next := 0
	popped := 0
	for step := 0; step < 2000; step++ {
		if r.Bool(0.6) || q.Len() == 0 {
			q.Push(Cycle(r.Intn(1000)), next)
			next++
		} else {
			if _, ok := q.PopReady(Never - 1); ok {
				popped++
			}
		}
	}
	for q.Len() > 0 {
		q.PopReady(Never - 1)
		popped++
	}
	if popped != next {
		t.Fatalf("popped %d, pushed %d", popped, next)
	}
}

// TestCalendarMatchesQueue drives a Calendar and a Queue with the same
// interleaved Push/PopReady stream and requires identical (ReadyAt, value)
// pop sequences. The push horizon widens in three phases so the ring grows
// from its reserved 64 slots to 1024 and then 4096 with items pending, and
// pending counts stay far below the push total so slab nodes are reused
// from the free list. At random points Fold must visit the pending items
// in the queue's pop order, on every ring size and with pending cycles
// wrapped around the ring's end.
func TestCalendarMatchesQueue(t *testing.T) {
	var cal Calendar[*int]
	var q Queue[*int]
	cal.Reserve(40)
	r := NewRNG(11)
	foldRNG := NewRNG(12) // its own stream, so the push/pop stream is unchanged
	rings := map[int]bool{len(cal.slots): true}
	folded := map[int]bool{}
	foldedWrapped := false
	now := Cycle(0)
	pushed, peak := 0, 0
	checkFold := func() {
		type entry struct {
			at Cycle
			v  *int
		}
		var got, want []entry
		cal.Fold(func(at Cycle, v *int) { got = append(got, entry{at, v}) })
		items := slices.Clone(q.items)
		slices.SortFunc(items, func(a, b Item[*int]) int {
			if c := cmp.Compare(a.ReadyAt, b.ReadyAt); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
		for _, it := range items {
			want = append(want, entry{it.ReadyAt, it.Val})
		}
		if !slices.Equal(got, want) {
			t.Fatalf("cycle %d: Fold visits %d items, queue pop order has %d, or their order differs", now, len(got), len(want))
		}
		folded[len(cal.slots)] = true
		if cal.count > 0 && int(cal.next)&cal.mask+int(cal.maxAt-cal.next) >= len(cal.slots) {
			foldedWrapped = true
		}
	}
	drain := func(upTo Cycle) {
		for {
			at := q.NextReady()
			if got := cal.NextReady(); got != at {
				t.Fatalf("cycle %d: NextReady = %d, queue says %d", now, got, at)
			}
			qv, qok := q.PopReady(upTo)
			cv, cok := cal.PopReady(upTo)
			if qok != cok {
				t.Fatalf("cycle %d: PopReady ok = %v, queue says %v", now, cok, qok)
			}
			if !qok {
				return
			}
			if cv != qv {
				t.Fatalf("cycle %d: popped (%d, #%d), queue popped (%d, #%d)", now, at, *cv, at, *qv)
			}
		}
	}
	for _, span := range []int{50, 900, 3000} {
		for step := 0; step < 4000; step++ {
			for k := r.Intn(4); k > 0; k-- {
				v := pushed
				at := now + Cycle(r.Intn(span))
				cal.Push(at, &v)
				q.Push(at, &v)
				pushed++
			}
			if cal.Len() > peak {
				peak = cal.Len()
			}
			rings[len(cal.slots)] = true
			if foldRNG.Bool(0.05) {
				checkFold()
			}
			if r.Bool(0.7) {
				drain(now)
			}
			now += Cycle(r.Intn(span/25 + 2))
		}
	}
	drain(Never - 1)
	if cal.Len() != 0 || cal.NextReady() != Never {
		t.Fatalf("drained calendar: Len %d, NextReady %d", cal.Len(), cal.NextReady())
	}
	for _, size := range []int{64, 1024, 4096} {
		if !rings[size] {
			t.Fatalf("ring never had %d slots (saw %v)", size, rings)
		}
		if !folded[size] {
			t.Fatalf("Fold never checked on a %d-slot ring (saw %v)", size, folded)
		}
	}
	if !foldedWrapped {
		t.Fatal("Fold never checked with pending cycles wrapped around the ring")
	}
	if nodes := len(cal.nodes) - 1; nodes != peak || nodes*4 > pushed {
		t.Fatalf("slab holds %d nodes for %d pushes at peak occupancy %d: free list not reused", nodes, pushed, peak)
	}
	free := 0
	for n := cal.free; n != 0; n = cal.nodes[n].next {
		if cal.nodes[n].val != nil {
			t.Fatalf("free node %d still holds payload #%d", n, *cal.nodes[n].val)
		}
		free++
	}
	if free != len(cal.nodes)-1 {
		t.Fatalf("free list has %d of %d nodes after draining", free, len(cal.nodes)-1)
	}
}

// TestPipeMatchesQueue drives a Pipe and a Queue with the same interleaved
// stream of nondecreasing pushes (many on the same cycle) and PopReady
// calls at a moving now, and requires identical pops, NextReady and Len
// at every step. The push rate alternates above and below the pop rate, so
// occupancy climbs through several ring sizes and drains again; the test
// requires at least one growth while the ring is wrapped with items
// pending, and that draining zeroes every slot.
func TestPipeMatchesQueue(t *testing.T) {
	var p Pipe[*int]
	var q Queue[*int]
	r := NewRNG(5)
	now, tail := Cycle(0), Cycle(0)
	pushed, wrappedGrows, peakRing := 0, 0, 0
	same := func(step int) {
		if p.Len() != q.Len() || p.NextReady() != q.NextReady() {
			t.Fatalf("step %d: Len %d NextReady %d, queue says %d, %d", step, p.Len(), p.NextReady(), q.Len(), q.NextReady())
		}
	}
	pop := func(step int, upTo Cycle) bool {
		qv, qok := q.PopReady(upTo)
		pv, pok := p.PopReady(upTo)
		if qok != pok || pv != qv {
			t.Fatalf("step %d: PopReady(%d) = %v, %v; queue says %v, %v", step, upTo, pv, pok, qv, qok)
		}
		same(step)
		return pok
	}
	for step := 0; step < 40000; step++ {
		maxPush := 2
		if step/4000%2 == 0 {
			maxPush = 4
		}
		for k := r.Intn(maxPush); k > 0; k-- {
			if r.Bool(0.3) {
				tail += Cycle(r.Intn(3))
			}
			if p.Len() == len(p.ring) && p.head != 0 {
				wrappedGrows++
			}
			v := pushed
			p.Push(tail, &v)
			q.Push(tail, &v)
			pushed++
			same(step)
		}
		if len(p.ring) > peakRing {
			peakRing = len(p.ring)
		}
		for k := r.Intn(3); k > 0 && pop(step, now); k-- {
		}
		now += Cycle(r.Intn(2))
	}
	for pop(-1, Never-1) {
	}
	if p.Len() != 0 || p.NextReady() != Never {
		t.Fatalf("drained pipe: Len %d, NextReady %d", p.Len(), p.NextReady())
	}
	if wrappedGrows == 0 || peakRing < 256 {
		t.Fatalf("ring grew to %d with %d wrapped grows: stream too tame", peakRing, wrappedGrows)
	}
	for i, it := range p.ring {
		if it.val != nil {
			t.Fatalf("popped slot %d still holds payload #%d", i, *it.val)
		}
	}
}

// TestPipeRejectsOutOfOrderPush checks the ordering contract is enforced:
// a push earlier than the queued tail panics, while ties are accepted.
func TestPipeRejectsOutOfOrderPush(t *testing.T) {
	var p Pipe[int]
	p.Push(10, 1)
	p.Push(10, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Push(9) behind a tail at 10 did not panic")
		}
	}()
	p.Push(9, 3)
}

// TestResetMatchesNew: a Calendar and a Pipe reset with items pending —
// the calendar after growing its ring — pop exactly what new ones pop for
// the same later pushes, and hold no payload from before the reset.
func TestResetMatchesNew(t *testing.T) {
	var usedCal, newCal Calendar[*int]
	var usedPipe, newPipe Pipe[*int]
	r := NewRNG(17)
	for i := 0; i < 500; i++ {
		v := -i
		usedCal.Push(Cycle(r.Intn(5000)), &v)
		usedPipe.Push(Cycle(i), &v)
	}
	usedCal.Reset()
	usedPipe.Reset()
	if usedCal.Len() != 0 || usedCal.NextReady() != Never || usedPipe.Len() != 0 || usedPipe.NextReady() != Never {
		t.Fatal("reset queues are not empty")
	}
	for _, n := range usedCal.nodes[:cap(usedCal.nodes)] {
		if n.val != nil {
			t.Fatal("reset calendar keeps a payload alive in its slab")
		}
	}
	now := Cycle(0)
	for step := 0; step < 5000; step++ {
		v := step
		at := now + Cycle(r.Intn(300))
		usedCal.Push(at, &v)
		newCal.Push(at, &v)
		usedPipe.Push(now+10, &v)
		newPipe.Push(now+10, &v)
		now += Cycle(r.Intn(3))
		for {
			a, aok := usedCal.PopReady(now)
			b, bok := newCal.PopReady(now)
			if aok != bok || a != b {
				t.Fatalf("step %d: reset calendar pops (%v, %v), new one (%v, %v)", step, a, aok, b, bok)
			}
			if !aok {
				break
			}
		}
		for {
			a, aok := usedPipe.PopReady(now)
			b, bok := newPipe.PopReady(now)
			if aok != bok || a != b {
				t.Fatalf("step %d: reset pipe pops (%v, %v), new one (%v, %v)", step, a, aok, b, bok)
			}
			if !aok {
				break
			}
		}
	}
}
