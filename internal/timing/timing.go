// Package timing provides the basic clocking primitives shared by every
// component of the simulator: the Cycle type, a "never" sentinel used by
// components to report that they have no pending events, a deterministic
// pseudo-random number generator, and the ready-time queues used to model
// latency pipes: Pipe for producers that push in ready-time order,
// Calendar for the rest.
package timing

import (
	"math"
	"math/bits"
)

// Cycle is a point in simulated time, measured in GPU core clock cycles
// (1.4 GHz in the default configuration).
type Cycle uint64

// Never is the sentinel returned by NextEvent methods when a component has
// no pending work; the run loop treats it as "infinitely far in the future".
const Never Cycle = math.MaxUint64

// Min returns the earlier of two cycles.
func Min(a, b Cycle) Cycle {
	if a < b {
		return a
	}
	return b
}

// Max returns the later of two cycles.
func Max(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}

// RNG is a deterministic xorshift64* pseudo-random number generator.
// Every source of randomness in the simulator (workload generation only;
// the machine model itself is fully deterministic) flows through an RNG
// seeded from the run configuration, so identical configurations produce
// bit-identical runs.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has a zero fixpoint.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next raw 64-bit value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniformly distributed value in [0, n). It panics if
// n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("timing: Intn called with non-positive n")
	}
	return int(r.Uint64n(uint64(n)))
}

// Uint64n returns a uniformly distributed value in [0, n). It panics if
// n == 0. The reduction is Lemire's multiply-shift with the rejection
// step, so no residue is over-represented (a plain modulo biases low
// residues for any n that does not divide 2^64).
func (r *RNG) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("timing: Uint64n called with zero n")
	}
	hi, lo := bits.Mul64(r.Uint64(), n)
	if lo < n {
		thresh := -n % n // (2^64 - n) mod n
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), n)
		}
	}
	return hi
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *RNG) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork derives an independent generator; the child stream is a pure
// function of the parent state, so forking remains deterministic.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}

// ForkInto re-seeds dst as a child of r, producing the same stream as
// Fork without allocating (the |1 keeps the seed off xorshift's zero
// fixpoint, matching NewRNG's remap).
func (r *RNG) ForkInto(dst *RNG) {
	*dst = RNG{state: r.Uint64() | 1}
}

// Item is an element of a Queue: a payload that becomes visible at a
// specific cycle.
type Item[T any] struct {
	ReadyAt Cycle
	Val     T
	seq     uint64
}

// Queue is a min-heap of items ordered by ready time, with FIFO tiebreak
// for items that become ready on the same cycle. It models a latency pipe:
// producers Push with a computed ready time; consumers PopReady each cycle.
// No simulator component uses it any more: it is the reference
// implementation that the Calendar and Pipe tests compare against.
type Queue[T any] struct {
	items []Item[T]
	seq   uint64
}

// Len reports the number of queued items (ready or not).
func (q *Queue[T]) Len() int { return len(q.items) }

// Push inserts v so that it becomes visible at cycle at.
func (q *Queue[T]) Push(at Cycle, v T) {
	q.seq++
	q.items = append(q.items, Item[T]{ReadyAt: at, Val: v, seq: q.seq})
	q.up(len(q.items) - 1)
}

// NextReady returns the earliest ready time in the queue, or Never if the
// queue is empty.
func (q *Queue[T]) NextReady() Cycle {
	if len(q.items) == 0 {
		return Never
	}
	return q.items[0].ReadyAt
}

// PopReady removes and returns the earliest item if it is ready at cycle
// now. The second result reports whether an item was returned.
func (q *Queue[T]) PopReady(now Cycle) (T, bool) {
	var zero T
	if len(q.items) == 0 || q.items[0].ReadyAt > now {
		return zero, false
	}
	v := q.items[0].Val
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items = q.items[:last]
	if last > 0 {
		q.down(0)
	}
	return v, true
}

// calSlot is one ring slot: the FIFO chain of one cycle's items, as
// indices into the node slab (0 = none).
type calSlot struct {
	head, tail int32
}

// calNode is one queued item in the slab. next links the item's cycle
// chain while queued and the free list once popped.
type calNode[T any] struct {
	val  T
	next int32
}

// Calendar is a bucket ("calendar") queue: one FIFO chain per cycle,
// indexed by cycle modulo a power-of-two ring size. It pops items in
// exactly the (ReadyAt, insertion-order) sequence a Queue would, but with
// O(1) Push and amortized-O(1) PopReady, provided pending ready times span
// less than the ring size (the ring grows on demand when they don't).
// Use it for high-traffic queues whose pushes are not in ready-time order
// — e.g. interconnect deliveries with jitter; a producer that pushes in
// nondecreasing ready-time order uses Pipe instead.
//
// Memory follows occupancy, not the horizon: a ring slot is two int32
// chain ends, and items live in one slab of linked nodes recycled through
// a free list, so the slab holds at most the peak number of pending items.
type Calendar[T any] struct {
	slots []calSlot
	nodes []calNode[T] // slab; nodes[0] is the nil sentinel
	free  int32        // head of the free-node list (0 = empty)
	occ   []uint64     // occupancy bitmap, one bit per slot
	mask  int
	next  Cycle // earliest nonempty slot's cycle (undefined when empty)
	maxAt Cycle // latest pending cycle (undefined when empty)
	count int
}

// Len reports the number of queued items (ready or not).
func (c *Calendar[T]) Len() int { return c.count }

// NextReady returns the earliest ready time, or Never if empty.
func (c *Calendar[T]) NextReady() Cycle {
	if c.count == 0 {
		return Never
	}
	return c.next
}

// Push inserts v so that it becomes visible at cycle at.
func (c *Calendar[T]) Push(at Cycle, v T) {
	if c.slots == nil {
		c.init(1024)
	}
	lo, hi := at, at
	if c.count > 0 {
		if c.next < lo {
			lo = c.next
		}
		if c.maxAt > hi {
			hi = c.maxAt
		}
	}
	if hi-lo >= Cycle(len(c.slots)) {
		c.grow(lo, hi)
	}
	n := c.free
	if n != 0 {
		c.free = c.nodes[n].next
		c.nodes[n] = calNode[T]{val: v}
	} else {
		n = int32(len(c.nodes))
		c.nodes = append(c.nodes, calNode[T]{val: v})
	}
	pos := int(at) & c.mask
	s := &c.slots[pos]
	if s.head == 0 {
		s.head = n
		c.occ[pos>>6] |= 1 << uint(pos&63)
	} else {
		c.nodes[s.tail].next = n
	}
	s.tail = n
	c.count++
	c.next, c.maxAt = lo, hi
}

// Reserve sizes the ring for events at most span cycles apart, replacing
// the default (generously large) first-Push ring for queues with a known
// short horizon. The ring still grows on demand if the span estimate is
// exceeded. No-op once the calendar holds or has held items.
func (c *Calendar[T]) Reserve(span int) {
	if c.slots != nil || span <= 0 {
		return
	}
	size := 64
	for size <= span {
		size *= 2
	}
	c.init(size)
}

// Reset empties the calendar, keeping its ring and node slab for reuse.
// Pop order never depends on the ring size, so a reset calendar behaves
// exactly like a new one.
func (c *Calendar[T]) Reset() {
	if c.count > 0 {
		// Popping leaves slots, bitmap and nodes zeroed; only pending
		// items need clearing.
		clear(c.slots)
		clear(c.occ)
		clear(c.nodes)
	}
	if c.nodes != nil {
		c.nodes = c.nodes[:1]
	}
	c.free = 0
	c.count = 0
}

// init sizes an empty ring. The node slab starts with only its sentinel
// and grows with the number of simultaneously pending items.
func (c *Calendar[T]) init(size int) {
	c.slots = make([]calSlot, size)
	c.occ = make([]uint64, size/64)
	c.mask = size - 1
	if c.nodes == nil {
		c.nodes = make([]calNode[T], 1, 16)
	}
}

// grow reallocates the ring so that [lo, hi] fits, relinking each pending
// cycle's chain into its new slot (the items themselves stay put, so their
// order within each cycle is preserved).
func (c *Calendar[T]) grow(lo, hi Cycle) {
	size := 1024
	for Cycle(size) <= hi-lo {
		size *= 2
	}
	old, oldMask := c.slots, c.mask
	c.init(size)
	if c.count > 0 {
		for cyc := c.next; cyc <= c.maxAt; cyc++ {
			if s := old[int(cyc)&oldMask]; s.head != 0 {
				pos := int(cyc) & c.mask
				c.slots[pos] = s
				c.occ[pos>>6] |= 1 << uint(pos&63)
			}
		}
	}
}

// PopReady removes and returns the earliest item if it is ready at cycle
// now. The second result reports whether an item was returned.
func (c *Calendar[T]) PopReady(now Cycle) (T, bool) {
	var zero T
	if c.count == 0 || c.next > now {
		return zero, false
	}
	pos := int(c.next) & c.mask
	s := &c.slots[pos]
	n := s.head
	node := &c.nodes[n]
	v := node.val
	s.head = node.next
	// Zero the payload so a recycled node never keeps a pointer alive.
	*node = calNode[T]{next: c.free}
	c.free = n
	c.count--
	if s.head == 0 {
		s.tail = 0
		c.occ[pos>>6] &^= 1 << uint(pos&63)
		if c.count > 0 {
			// Jump to the next occupied slot via the bitmap. Pending
			// cycles span less than the ring size, so the first set bit
			// circularly after pos is the earliest pending cycle.
			i := (pos + 1) & c.mask
			w := i >> 6
			word := c.occ[w] &^ (1<<uint(i&63) - 1)
			for word == 0 {
				w++
				if w == len(c.occ) {
					w = 0
				}
				word = c.occ[w]
			}
			bit := w<<6 + bits.TrailingZeros64(word)
			c.next += 1 + Cycle((bit-i)&c.mask)
		}
	}
	return v, true
}

// pipeItem is one Pipe slot.
type pipeItem[T any] struct {
	at  Cycle
	val T
}

// Pipe is a FIFO ring for producers that push in nondecreasing ready-time
// order, such as a fixed-latency access pipeline fed by in-order deliveries.
// For such a stream FIFO order is exactly the (ReadyAt, insertion-order)
// sequence a Queue would pop, so PopReady only looks at the head. Push
// panics on an out-of-order ready time rather than silently reordering.
//
// Memory follows occupancy: the ring starts at 16 items on first Push and
// doubles when full; popped slots are zeroed so they keep no payload alive.
type Pipe[T any] struct {
	ring  []pipeItem[T] // power-of-two length
	head  int           // index of the oldest item
	count int
}

// Len reports the number of queued items (ready or not).
func (p *Pipe[T]) Len() int { return p.count }

// NextReady returns the head's ready time, or Never if empty.
func (p *Pipe[T]) NextReady() Cycle {
	if p.count == 0 {
		return Never
	}
	return p.ring[p.head].at
}

// Push appends v, visible at cycle at. It panics if at is earlier than the
// ready time of the item pushed before it that is still queued.
func (p *Pipe[T]) Push(at Cycle, v T) {
	if p.count > 0 && at < p.ring[(p.head+p.count-1)&(len(p.ring)-1)].at {
		panic("timing: Pipe.Push out of ready-time order")
	}
	if p.count == len(p.ring) {
		p.grow()
	}
	p.ring[(p.head+p.count)&(len(p.ring)-1)] = pipeItem[T]{at: at, val: v}
	p.count++
}

// grow doubles the full ring (16 items at first), unwrapping pending
// items to the front.
func (p *Pipe[T]) grow() {
	size := 16
	if len(p.ring) > 0 {
		size = 2 * len(p.ring)
	}
	ring := make([]pipeItem[T], size)
	n := copy(ring, p.ring[p.head:])
	copy(ring[n:], p.ring[:p.head])
	p.ring, p.head = ring, 0
}

// Reset empties the pipe, keeping its ring for reuse.
func (p *Pipe[T]) Reset() {
	if p.count > 0 {
		clear(p.ring)
	}
	p.head, p.count = 0, 0
}

// PopReady removes and returns the head item if it is ready at cycle now.
// The second result reports whether an item was returned.
func (p *Pipe[T]) PopReady(now Cycle) (T, bool) {
	if p.count == 0 || p.ring[p.head].at > now {
		var zero T
		return zero, false
	}
	it := &p.ring[p.head]
	v := it.val
	*it = pipeItem[T]{}
	p.head = (p.head + 1) & (len(p.ring) - 1)
	p.count--
	return v, true
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := q.items[i], q.items[j]
	if a.ReadyAt != b.ReadyAt {
		return a.ReadyAt < b.ReadyAt
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.items)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}
