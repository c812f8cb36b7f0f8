package ooo

import (
	"helios/internal/fusion"
)

// This file holds the hot-path memory-layout structures (DESIGN.md §13):
// a free-list arena recycling pUop objects across the run, an event wheel
// replacing the per-cycle completion map, a pairing ring replacing the
// oracle's tail-seq map, and the age-ordered ready list the issue stage
// selects from. All four trade the general map/allocate idiom for slice
// indexing keyed by cycle or sequence number, which the simulator can
// afford because both keys are dense and bounded.

// uopArena recycles pUop objects. µ-ops are allocated in fixed-size
// chunks (pointer stability: a pUop never moves once handed out) and
// returned through a free list when they leave the pipeline. Each recycle
// bumps the µ-op's generation counter, which lets the structures that may
// hold stale references — register waiter lists and the event wheel —
// detect that "their" µ-op has been reincarnated and ignore it.
type uopArena struct {
	chunks [][]pUop
	used   int // occupancy of the last chunk
	free   []*pUop
}

const arenaChunk = 256

// alloc returns a reset µ-op: zero fields except the generation counter,
// with the physical-register slots marked invalid.
func (a *uopArena) alloc() *pUop {
	var u *pUop
	if n := len(a.free); n > 0 {
		u = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
		u.pooled = false
	} else {
		if len(a.chunks) == 0 || a.used == arenaChunk {
			a.chunks = append(a.chunks, make([]pUop, arenaChunk))
			a.used = 0
		}
		u = &a.chunks[len(a.chunks)-1][a.used]
		a.used++
	}
	u.srcPhys = [3]int32{invalidReg, invalidReg, invalidReg}
	u.dstPhys = [2]int32{invalidReg, invalidReg}
	u.oldPhys = [2]int32{invalidReg, invalidReg}
	return u
}

// release returns a µ-op to the free list. The caller must guarantee no
// live structure still dereferences it without a generation check; the
// reset wipes every field (pinned by TestUopResetComplete) so nothing can
// leak into the next incarnation. Double release is a bookkeeping bug
// severe enough to stop the run: the panic is converted to a SimError by
// the run loop's recover.
func (a *uopArena) release(u *pUop) {
	if u.pooled {
		panic("ooo: µ-op released twice")
	}
	u.reset()
	//helios:hotalloc-ok free list refills capacity vacated by alloc; it grows only while the arena itself grows (warmup), then never again
	a.free = append(a.free, u)
}

// reset wipes the µ-op for reuse, keeping only the generation counter
// (bumped, so stale waiter/event references fail their gen check) and the
// pooled flag.
func (u *pUop) reset() {
	*u = pUop{gen: u.gen + 1, pooled: true}
}

// eventRef is one pending completion in the event wheel. The generation
// snapshot guards against the µ-op being flushed, released and recycled
// while its completion was still in flight.
type eventRef struct {
	u   *pUop
	gen uint32
}

// eventWheel schedules µ-op completions by absolute cycle. Slots are
// indexed cycle&mask; grow-on-insert keeps the horizon (completeAt −
// current cycle) strictly below the slot count, so a slot never holds
// events for two different future cycles. Growth is rare: the horizon is
// bounded by the worst memory latency, but chaos configs randomize cache
// latencies, so the bound is discovered at run time rather than sized
// from the config.
type eventWheel struct {
	slots [][]eventRef
	mask  uint64
}

func newEventWheel() *eventWheel {
	const initSlots = 1024 // > default worst-case DRAM latency
	return &eventWheel{slots: make([][]eventRef, initSlots), mask: initSlots - 1}
}

// schedule inserts a completion at absolute cycle `at`, where now is the
// current cycle (needed to maintain the horizon invariant).
func (w *eventWheel) schedule(u *pUop, at, now uint64) {
	if at-now >= uint64(len(w.slots)) {
		w.grow(at-now, now)
	}
	i := at & w.mask
	//helios:hotalloc-ok slot slices are drained to [:0] and reused; capacity reaches the per-cycle event peak once, then stays
	w.slots[i] = append(w.slots[i], eventRef{u: u, gen: u.gen})
}

// grow rebuilds the wheel with at least horizon+1 slots (next power of
// two), re-slotting pending events under the new mask.
//
//helios:hotalloc-ok geometric growth to the longest latency ever seen, then never again; amortized O(1) per schedule
func (w *eventWheel) grow(horizon, now uint64) {
	n := uint64(len(w.slots))
	for n <= horizon {
		n *= 2
	}
	old := w.slots
	w.slots = make([][]eventRef, n)
	w.mask = n - 1
	for _, evs := range old {
		for _, e := range evs {
			// Pending events all lie within the old horizon, hence within
			// the new one; their absolute cycle is recoverable from the
			// µ-op itself.
			i := e.u.completeAt & w.mask
			w.slots[i] = append(w.slots[i], e)
		}
	}
}

// drain returns the events due at cycle `now` and empties the slot. The
// returned slice is only valid until the next schedule call for that
// slot; callers must filter each entry through its generation check.
func (w *eventWheel) drain(now uint64) []eventRef {
	i := now & w.mask
	evs := w.slots[i]
	w.slots[i] = evs[:0]
	return evs
}

// pairingRing holds oracle pairings awaiting application, keyed by the
// tail's sequence number. Pairings are produced when the oracle observes
// the tail record and consumed (or abandoned) in the same decode
// neighbourhood, so live entries span at most a MaxDist-sized window;
// the ring is sized well above that and each slot stores the exact tail
// seq so a stale abandoned entry can never satisfy a lookup for a later
// seq that happens to share its slot.
type pairingRing struct {
	slots []pairingSlot
	mask  uint64
}

type pairingSlot struct {
	p     fusion.Pairing
	seq   uint64
	valid bool
}

func newPairingRing(maxDist int) *pairingRing {
	n := uint64(256)
	for n < 4*uint64(maxDist+2) {
		n *= 2
	}
	return &pairingRing{slots: make([]pairingSlot, n), mask: n - 1}
}

// put records a pairing for tail seq p.TailSeq, overwriting whatever
// older (necessarily dead or abandoned) entry shared the slot.
func (r *pairingRing) put(p fusion.Pairing) {
	r.slots[p.TailSeq&r.mask] = pairingSlot{p: p, seq: p.TailSeq, valid: true}
}

// take returns and clears the pairing for exactly this tail seq.
func (r *pairingRing) take(seq uint64) (fusion.Pairing, bool) {
	s := &r.slots[seq&r.mask]
	if !s.valid || s.seq != seq {
		return fusion.Pairing{}, false
	}
	s.valid = false
	return s.p, true
}

// clear drops every pending pairing (flush recovery: sequence numbers are
// re-fetched and re-observed, so stale plans must not survive).
func (r *pairingRing) clear() {
	for i := range r.slots {
		r.slots[i].valid = false
	}
}

// readyRef is one ready-list entry. The generation snapshot guards
// against the µ-op being recycled; seq is the µ-op's seq at insertion,
// so the list stays ordered without dereferencing a stale pointer.
type readyRef struct {
	u   *pUop
	gen uint32
	seq uint64
}

// readyList holds the issue candidates in age (seq) order: every
// dispatched µ-op whose pendSrcs reached 0 joins it (at dispatch, on
// wakeup, or when an unfuse retracts its last pending source), and
// issueStage selects from it. Entries are filtered lazily like
// event-wheel refs: a ref is live while its generation matches and the
// µ-op is still dispatched with no pending sources; sweep drops the rest
// once per cycle. pUop.inReady keeps at most one ref per incarnation.
//
// Bound: each ref names a distinct µ-op that is either in the IQ or was
// issued earlier in the current walk (the sweep ending the walk drops
// it), and flushFrom truncates the refs of killed µ-ops before they are
// recycled. So the list never holds more refs than the IQ held µ-ops
// when the current cycle's walk began (or holds now, outside the walk):
// at most IQSize, the capacity New preallocates.
type readyList struct {
	refs []readyRef
	// cur is issueStage's walk index (-1 outside the walk). An insertion
	// at or before it shifts the current entry right, so cur follows it:
	// the walk neither revisits an entry nor sees a µ-op older than its
	// position, exactly as a scan over a start-of-cycle IQ snapshot would.
	cur int
}

func newReadyList(capacity int) readyList {
	return readyList{refs: make([]readyRef, 0, capacity), cur: -1}
}

// add inserts u in seq order unless this incarnation already has a ref.
// The search runs from the young end: dispatch always appends, and
// wakeups mostly land near it.
func (l *readyList) add(u *pUop) {
	if u.inReady {
		return
	}
	u.inReady = true
	i := len(l.refs)
	for i > 0 && l.refs[i-1].seq > u.seq {
		i--
	}
	//helios:hotalloc-ok capacity preallocated to IQSize in New; the list never holds more refs than the IQ holds µ-ops (readyList doc)
	l.refs = append(l.refs, readyRef{})
	copy(l.refs[i+1:], l.refs[i:])
	l.refs[i] = readyRef{u: u, gen: u.gen, seq: u.seq}
	if l.cur >= 0 && i <= l.cur {
		l.cur++
	}
}

// live reports whether r still names a dispatched µ-op with no pending
// sources (an issue candidate).
func (r readyRef) live() bool {
	return r.u.gen == r.gen && r.u.st == stDispatched && r.u.pendSrcs == 0
}

// sweep drops every ref that is no longer live, keeping the order.
func (l *readyList) sweep() {
	n := 0
	for _, r := range l.refs {
		if r.live() {
			l.refs[n] = r
			n++
		} else if r.u.gen == r.gen {
			r.u.inReady = false
		}
	}
	l.refs = l.refs[:n]
}

// truncate drops the refs at or past a flush point (the list is seq
// ordered, so they are a suffix); the µ-ops they name were just killed.
func (l *readyList) truncate(from uint64) {
	n := len(l.refs)
	for n > 0 && l.refs[n-1].seq >= from {
		n--
		if r := l.refs[n]; r.u.gen == r.gen {
			r.u.inReady = false
		}
	}
	l.refs = l.refs[:n]
}
