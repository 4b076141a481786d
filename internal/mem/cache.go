// Package mem provides the storage-array building blocks shared by every
// coherence protocol: set-associative cache arrays with LRU replacement,
// MSHR tables, and a banked GDDR DRAM timing model.
package mem

import "math/bits"

// Entry is one way of one cache set. Meta carries protocol-specific state
// (timestamps, MESI state, dirty bits, values).
type Entry[M any] struct {
	Tag   uint64 // full line address (not just the tag bits; sets are implicit)
	Valid bool
	Meta  M
	lru   uint64
	idx   int32 // position in the array's flat storage (for the tag mirror)
}

// Victim describes a line displaced by Allocate.
type Victim[M any] struct {
	Tag      uint64
	Meta     M
	WasValid bool
}

// Array is a set-associative cache array. The caller supplies the
// line-address-to-set mapping so that L1s (modulo sets) and L2 partitions
// (partition-interleaved) can share the implementation.
type Array[M any] struct {
	sets [][]Entry[M]
	// tags mirrors every entry's (valid, Tag) pair in a flat, densely
	// packed slice so Lookup scans one cache line per set instead of one
	// per way. Invalid slots hold ^0 (a match is still confirmed against
	// the entry, so a real line address of ^0 stays correct).
	tags  []uint64
	flat  []Entry[M]
	ways  int
	index func(line uint64) int
	clock uint64
	// touched has one bit per set, set by Allocate: the sets that may
	// hold a valid entry since the last Reset.
	touched []uint64
}

const invalidTag = ^uint64(0)

// NewArray builds an array with the given geometry. index maps a line
// address to a set number in [0, sets).
func NewArray[M any](sets, ways int, index func(line uint64) int) *Array[M] {
	if sets <= 0 || ways <= 0 {
		panic("mem: non-positive cache geometry")
	}
	a := &Array[M]{index: index, ways: ways, sets: make([][]Entry[M], sets), touched: make([]uint64, (sets+63)/64)}
	a.flat = make([]Entry[M], sets*ways) // one backing array for all sets
	a.tags = make([]uint64, sets*ways)
	for i := range a.tags {
		a.tags[i] = invalidTag
	}
	for i := range a.flat {
		a.flat[i].idx = int32(i)
	}
	for i := range a.sets {
		a.sets[i] = a.flat[i*ways : (i+1)*ways : (i+1)*ways]
	}
	return a
}

// Reset invalidates every entry and restarts the LRU clock, leaving the
// array as NewArray builds it. It visits only the sets Allocate touched
// since the last Reset: an entry elsewhere is already zero, since only
// Allocate makes an entry valid and Invalidate zeroes it again. Its cost
// follows the lines a run used, not the array's capacity.
func (a *Array[M]) Reset() {
	for w, bitsLeft := range a.touched {
		for ; bitsLeft != 0; bitsLeft &= bitsLeft - 1 {
			set := a.sets[w*64+bits.TrailingZeros64(bitsLeft)]
			for i := range set {
				if set[i].Valid {
					a.Invalidate(&set[i])
				}
			}
		}
		a.touched[w] = 0
	}
	a.clock = 0
}

// Lookup returns the entry holding line, or nil. It does not update LRU
// state; callers decide what counts as a use via Touch.
func (a *Array[M]) Lookup(line uint64) *Entry[M] {
	base := a.index(line) * a.ways
	tags := a.tags[base : base+a.ways]
	for i, t := range tags {
		if t == line {
			e := &a.flat[base+i]
			if e.Valid && e.Tag == line {
				return e
			}
		}
	}
	return nil
}

// Touch marks e as most recently used.
func (a *Array[M]) Touch(e *Entry[M]) {
	a.clock++
	e.lru = a.clock
}

// Invalidate clears e.
func (a *Array[M]) Invalidate(e *Entry[M]) {
	var zero M
	e.Valid = false
	e.Tag = 0
	e.Meta = zero
	e.lru = 0
	a.tags[e.idx] = invalidTag
}

// Allocate finds a slot for line, evicting the LRU entry among those for
// which canEvict returns true (canEvict == nil permits any entry). It
// returns the (re-initialized, Valid) entry, the displaced victim if one
// was valid, and ok=false if every way is pinned. If the line is already
// present its entry is returned unchanged (with ok=true, no victim).
func (a *Array[M]) Allocate(line uint64, canEvict func(*Entry[M]) bool) (*Entry[M], Victim[M], bool) {
	var none Victim[M]
	setIdx := a.index(line)
	set := a.sets[setIdx]
	var free *Entry[M]
	var lruEntry *Entry[M]
	for i := range set {
		e := &set[i]
		if e.Valid && e.Tag == line {
			return e, none, true
		}
		if !e.Valid {
			if free == nil {
				free = e
			}
			continue
		}
		if canEvict != nil && !canEvict(e) {
			continue
		}
		if lruEntry == nil || e.lru < lruEntry.lru {
			lruEntry = e
		}
	}
	target := free
	victim := none
	if target == nil {
		if lruEntry == nil {
			return nil, none, false
		}
		target = lruEntry
		victim = Victim[M]{Tag: target.Tag, Meta: target.Meta, WasValid: true}
	}
	var zero M
	target.Tag = line
	target.Valid = true
	target.Meta = zero
	a.tags[target.idx] = line
	a.touched[setIdx/64] |= 1 << (setIdx % 64)
	a.Touch(target)
	return target, victim, true
}

// ForEach visits every valid entry; fn may invalidate entries via the
// provided pointer (used by rollover flushes).
func (a *Array[M]) ForEach(fn func(e *Entry[M])) {
	for s := range a.sets {
		for i := range a.sets[s] {
			if a.sets[s][i].Valid {
				fn(&a.sets[s][i])
			}
		}
	}
}

// CountValid returns the number of valid entries.
func (a *Array[M]) CountValid() int {
	n := 0
	a.ForEach(func(*Entry[M]) { n++ })
	return n
}

type mshrSlot[E any] struct {
	line uint64
	e    *E // nil marks an empty slot
}

// MSHRs is a miss-status-holding-register table keyed by line address, with
// a capacity bound. E is the protocol-specific entry payload.
//
// The table is open-addressed (linear probing over a power-of-two slot
// array kept at most a quarter full, with backward-shift deletion so
// probe chains never accumulate tombstones) and recycles entry payloads
// through a free list, so the steady-state hot path performs no map
// hashing and no allocation. Consequently an entry pointer is only valid
// until the Free that releases it; the next Alloc may hand the same
// payload back out, reset by the constructor's reset function.
//
// The slot array starts small and doubles (rehashing) as the live count
// rises, so memory follows the peak number of outstanding misses rather
// than the capacity bound; most tables never see more than a few.
type MSHRs[E any] struct {
	cap   int
	n     int
	shift uint // 64 - log2(len(slots)); fibonacci-hash shift
	slots []mshrSlot[E]
	free  []*E
	reset func(*E)
}

// mshrMinSlots is the initial slot-array size (shift 64-4).
const mshrMinSlots = 16

// NewMSHRs returns a table with the given capacity. reset restores a
// recycled entry to its zero state; it should truncate slices with [:0]
// rather than nil them so their capacity survives recycling. A nil reset
// zeroes the whole entry.
func NewMSHRs[E any](capacity int, reset func(*E)) *MSHRs[E] {
	if capacity <= 0 {
		panic("mem: non-positive MSHR capacity")
	}
	t := &MSHRs[E]{
		cap:   capacity,
		slots: make([]mshrSlot[E], mshrMinSlots),
		reset: reset,
	}
	t.Reset()
	return t
}

// Reset frees every entry, recycling the payloads, and shrinks the slot
// array back to its initial size, so ForEach visits a reused table in the
// same order as a new one. An empty table has no live slot to visit.
func (t *MSHRs[E]) Reset() {
	if t.n > 0 {
		for i := range t.slots {
			if e := t.slots[i].e; e != nil {
				t.recycle(e)
			}
		}
		clear(t.slots)
	}
	t.slots = t.slots[:mshrMinSlots]
	t.shift = 60
	t.n = 0
}

// recycle restores a released payload and puts it on the free list.
func (t *MSHRs[E]) recycle(e *E) {
	if t.reset != nil {
		t.reset(e)
	} else {
		var zero E
		*e = zero
	}
	t.free = append(t.free, e)
}

// home returns the starting probe index for line.
func (t *MSHRs[E]) home(line uint64) int {
	return int((line * 0x9E3779B97F4A7C15) >> t.shift)
}

// find returns the index of line's slot, or of the empty slot that ends
// its probe chain when line has no entry.
func (t *MSHRs[E]) find(line uint64) int {
	i := t.home(line)
	mask := len(t.slots) - 1
	for {
		s := &t.slots[i]
		if s.e == nil || s.line == line {
			return i
		}
		i = (i + 1) & mask
	}
}

// grow doubles the slot array and re-inserts every live entry.
func (t *MSHRs[E]) grow() {
	old := t.slots
	t.slots = make([]mshrSlot[E], 2*len(old))
	t.shift--
	for _, s := range old {
		if s.e != nil {
			t.slots[t.find(s.line)] = s
		}
	}
}

// Get returns the entry for line, or nil.
func (t *MSHRs[E]) Get(line uint64) *E {
	return t.slots[t.find(line)].e
}

// Alloc creates an entry for line. It returns nil if the table is full or
// the line already has an entry (callers must Get first). The returned
// payload may be a recycled one; any pointer obtained before the matching
// Free is stale.
func (t *MSHRs[E]) Alloc(line uint64) *E {
	if t.n >= t.cap {
		return nil
	}
	i := t.find(line)
	if t.slots[i].e != nil {
		return nil
	}
	if 4*(t.n+1) > len(t.slots) {
		t.grow()
		i = t.find(line)
	}
	var e *E
	if k := len(t.free); k > 0 {
		e = t.free[k-1]
		t.free[k-1] = nil
		t.free = t.free[:k-1]
	} else {
		e = new(E)
	}
	t.slots[i] = mshrSlot[E]{line: line, e: e}
	t.n++
	return e
}

// Free releases the entry for line and recycles its payload. The caller
// must drop every pointer to the payload before the next Alloc.
func (t *MSHRs[E]) Free(line uint64) {
	i := t.find(line)
	e := t.slots[i].e
	if e == nil {
		return
	}
	mask := len(t.slots) - 1
	t.recycle(e)
	t.n--
	// Backward-shift deletion: pull every displaced successor in the
	// probe chain one hole closer to its home slot.
	j := i
	for {
		j = (j + 1) & mask
		if t.slots[j].e == nil {
			break
		}
		h := t.home(t.slots[j].line)
		if (j-h)&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = mshrSlot[E]{}
}

// Len reports the number of live entries.
func (t *MSHRs[E]) Len() int { return t.n }

// Full reports whether Alloc would fail for a new line.
func (t *MSHRs[E]) Full() bool { return t.n >= t.cap }

// ForEach visits all entries in slot order (deterministic for a given
// insertion history, but not sorted — see Lines for sorted keys).
func (t *MSHRs[E]) ForEach(fn func(line uint64, e *E)) {
	for i := range t.slots {
		if t.slots[i].e != nil {
			fn(t.slots[i].line, t.slots[i].e)
		}
	}
}

// Lines returns all keys in ascending order (for deterministic iteration).
func (t *MSHRs[E]) Lines() []uint64 {
	out := make([]uint64, 0, t.n)
	for i := range t.slots {
		if t.slots[i].e != nil {
			out = append(out, t.slots[i].line)
		}
	}
	// insertion sort; tables are small
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Backing line-address paging: workload generators bump-allocate line
// addresses densely from zero, so the image is a lazily grown array of
// fixed pages with a map fallback for pathological (sparse, huge)
// addresses from hand-written tests.
const (
	backingPageBits  = 12
	backingPageLines = 1 << backingPageBits
	backingPageMask  = backingPageLines - 1
	backingMaxPages  = 1 << 16 // dense coverage for lines < 2^28
)

// Backing is the DRAM value image shared by all partitions: one uint64
// value per line (the simulator tracks values at line granularity; see
// DESIGN.md). Absent lines read as zero.
type Backing struct {
	pages    [][]uint64
	overflow map[uint64]uint64 // lines >= backingMaxPages * backingPageLines
}

// NewBacking returns an empty memory image.
func NewBacking() *Backing { return &Backing{} }

// Reset zeroes every line, keeping the pages.
func (b *Backing) Reset() {
	for _, pg := range b.pages {
		clear(pg)
	}
	clear(b.overflow)
}

// Read returns the value of line (zero if never written).
func (b *Backing) Read(line uint64) uint64 {
	p := line >> backingPageBits
	if p < uint64(len(b.pages)) {
		if pg := b.pages[p]; pg != nil {
			return pg[line&backingPageMask]
		}
		return 0
	}
	if p >= backingMaxPages {
		return b.overflow[line]
	}
	return 0
}

// Write stores val at line.
func (b *Backing) Write(line, val uint64) {
	p := line >> backingPageBits
	if p >= backingMaxPages {
		if b.overflow == nil {
			b.overflow = make(map[uint64]uint64)
		}
		b.overflow[line] = val
		return
	}
	if p >= uint64(len(b.pages)) {
		grown := make([][]uint64, p+1)
		copy(grown, b.pages)
		b.pages = grown
	}
	pg := b.pages[p]
	if pg == nil {
		pg = make([]uint64, backingPageLines)
		b.pages[p] = pg
	}
	pg[line&backingPageMask] = val
}
