package ooo

import (
	"reflect"
	"testing"
	"unsafe"

	"helios/internal/fusion"
)

// setNonZero writes a non-zero value of v's type through v, recursing
// into structs and arrays so every leaf is non-zero. Unsupported kinds
// fail the test: a new pUop field of an exotic type must extend this
// helper before it can ride through the arena.
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(1)
	case reflect.String:
		v.SetString("x")
	case reflect.Ptr:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Map:
		v.Set(reflect.MakeMap(v.Type()))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			// Unexported fields come back read-only even under an
			// addressable parent; re-derive a settable view of the same
			// memory.
			f := v.Field(i)
			setNonZero(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			setNonZero(t, v.Index(i))
		}
	default:
		t.Fatalf("setNonZero: unsupported kind %v (%v): extend the helper", v.Kind(), v.Type())
	}
}

// TestUopResetComplete pins the arena's recycling contract: reset must
// wipe EVERY pUop field back to its zero value, keeping only the arena
// bookkeeping (gen, bumped so stale generation-checked references miss;
// pooled, the double-release guard). The test writes every field —
// exported or not — non-zero via unsafe reflection, so a future field
// added to pUop cannot silently leak state into the next incarnation:
// either reset's whole-struct assignment wipes it (it does today, by
// construction) or this test fails the moment someone narrows reset to
// a field list.
func TestUopResetComplete(t *testing.T) {
	u := &pUop{}
	rv := reflect.ValueOf(u).Elem()
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		// Unexported fields are not settable through the exported API;
		// re-derive an addressable view of the same memory.
		setNonZero(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
	}
	// The helper must have set gen itself to 1; remember it for the bump
	// check below.
	genBefore := u.gen

	u.pooled = false // release() requires a live µ-op
	var a uopArena
	a.release(u)

	keep := map[string]bool{"gen": true, "pooled": true}
	ty := rv.Type()
	for i := 0; i < rv.NumField(); i++ {
		name := ty.Field(i).Name
		f := reflect.NewAt(rv.Field(i).Type(), unsafe.Pointer(rv.Field(i).UnsafeAddr())).Elem()
		if keep[name] {
			if f.IsZero() {
				t.Errorf("reset cleared arena bookkeeping field %q", name)
			}
			continue
		}
		if !f.IsZero() {
			t.Errorf("reset leaked field %q across recycle: %v", name, f.Interface())
		}
	}
	if u.gen != genBefore+1 {
		t.Errorf("reset gen = %d, want %d (must bump so stale references miss)", u.gen, genBefore+1)
	}
	if !u.pooled {
		t.Error("reset must leave the µ-op marked pooled (double-release guard)")
	}
}

// TestArenaRecycle checks the free-list round trip: a released µ-op is
// handed out again with a bumped generation and invalid register slots,
// and releasing it twice panics (the run loop converts that to a
// SimError).
func TestArenaRecycle(t *testing.T) {
	var a uopArena
	u := a.alloc()
	u.seq = 42
	gen := u.gen
	a.release(u)

	u2 := a.alloc()
	if u2 != u {
		t.Fatalf("alloc after release returned a fresh µ-op, want the recycled one")
	}
	if u2.gen != gen+1 {
		t.Errorf("recycled gen = %d, want %d", u2.gen, gen+1)
	}
	if u2.seq != 0 || u2.pooled {
		t.Errorf("recycled µ-op not reset: seq=%d pooled=%v", u2.seq, u2.pooled)
	}
	for _, p := range u2.srcPhys {
		if p != invalidReg {
			t.Errorf("srcPhys not re-marked invalid: %v", u2.srcPhys)
		}
	}

	a.release(u2)
	defer func() {
		if recover() == nil {
			t.Error("double release did not panic")
		}
	}()
	a.release(u2)
}

// TestEventWheelGrow schedules completions past the wheel's horizon and
// checks that growing preserves every pending event at its cycle.
func TestEventWheelGrow(t *testing.T) {
	var a uopArena
	w := newEventWheel()
	horizon := uint64(len(w.slots))

	near := a.alloc()
	near.completeAt = 3
	w.schedule(near, near.completeAt, 0)

	far := a.alloc()
	far.completeAt = horizon + 5 // would alias cycle 5 without growth
	w.schedule(far, far.completeAt, 0)

	if uint64(len(w.slots)) <= horizon {
		t.Fatalf("wheel did not grow past horizon %d", horizon)
	}
	if evs := w.drain(3); len(evs) != 1 || evs[0].u != near {
		t.Errorf("drain(3) = %v, want the near µ-op", evs)
	}
	if evs := w.drain(5); len(evs) != 0 {
		t.Errorf("drain(5) = %v, want empty (far event must not alias)", evs)
	}
	if evs := w.drain(horizon + 5); len(evs) != 1 || evs[0].u != far {
		t.Errorf("drain(%d) = %v, want the far µ-op", horizon+5, evs)
	}
}

// TestEventWheelStaleGeneration checks the wheel's stale-reference
// protocol: a drained event whose generation no longer matches its µ-op
// (flushed, released, recycled mid-flight) must be detectable.
func TestEventWheelStaleGeneration(t *testing.T) {
	var a uopArena
	w := newEventWheel()
	u := a.alloc()
	u.completeAt = 7
	w.schedule(u, u.completeAt, 0)
	a.release(u) // flush path: the event is still in the wheel

	evs := w.drain(7)
	if len(evs) != 1 {
		t.Fatalf("drain(7) = %v, want one event", evs)
	}
	if evs[0].gen == evs[0].u.gen {
		t.Error("released µ-op's event still passes the generation check")
	}
}

// TestPairingRingExactSeq checks that the ring only returns a pairing
// for the exact tail sequence it was stored under: an aliasing sequence
// (same slot, different seq) must miss, and a leaked entry must be
// safely overwritten by a later pairing landing in the same slot.
func TestPairingRingExactSeq(t *testing.T) {
	r := newPairingRing(4)
	size := uint64(len(r.slots))

	r.put(fusion.Pairing{TailSeq: 10})
	if _, ok := r.take(10 + size); ok {
		t.Error("take(aliasing seq) hit, want miss")
	}
	if _, ok := r.take(10); !ok {
		t.Error("take(exact seq) missed")
	}
	if _, ok := r.take(10); ok {
		t.Error("take consumed entry still present")
	}

	// A dead (never-taken) entry is overwritten by a slot collision.
	r.put(fusion.Pairing{TailSeq: 20})
	r.put(fusion.Pairing{TailSeq: 20 + size})
	if _, ok := r.take(20); ok {
		t.Error("overwritten entry still taken")
	}
	if p, ok := r.take(20 + size); !ok || p.TailSeq != 20+size {
		t.Errorf("take(%d) = %+v ok=%v, want the overwriting pairing", 20+size, p, ok)
	}

	r.put(fusion.Pairing{TailSeq: 30})
	r.clear()
	if _, ok := r.take(30); ok {
		t.Error("take after clear hit, want miss")
	}
}

// TestReadyListOrderAndCursor pins the ready list's contract with the
// issue walk: refs stay in seq order, an incarnation is listed once, an
// insertion at or before the cursor moves the cursor with the current
// entry (the walk neither revisits it nor reaches the older newcomer),
// and sweep/truncate drop exactly the dead refs.
func TestReadyListOrderAndCursor(t *testing.T) {
	l := newReadyList(8)
	mk := func(seq uint64) *pUop { return &pUop{seq: seq, st: stDispatched} }
	u10, u20, u30 := mk(10), mk(20), mk(30)
	l.add(u10)
	l.add(u30)
	l.add(u20)
	l.add(u20) // already listed: no duplicate
	seqs := func() []uint64 {
		var out []uint64
		for _, r := range l.refs {
			out = append(out, r.seq)
		}
		return out
	}
	if got := seqs(); !reflect.DeepEqual(got, []uint64{10, 20, 30}) {
		t.Fatalf("refs = %v, want [10 20 30]", got)
	}

	l.cur = 1 // the walk is at seq 20
	l.add(mk(5))
	if l.refs[l.cur].u != u20 {
		t.Fatalf("cursor left seq 20 after an older insertion: at seq %d", l.refs[l.cur].seq)
	}
	l.add(mk(25)) // younger than the cursor: the walk will reach it
	if l.refs[l.cur].u != u20 || l.refs[l.cur+1].seq != 25 {
		t.Fatalf("younger insertion moved the cursor: refs %v, cur %d", seqs(), l.cur)
	}
	l.cur = -1

	u20.st = stIssued
	u30.gen++ // recycled while listed
	l.sweep()
	if got := seqs(); !reflect.DeepEqual(got, []uint64{5, 10, 25}) {
		t.Fatalf("after sweep refs = %v, want [5 10 25]", got)
	}
	if u20.inReady {
		t.Error("sweep left the issued µ-op marked listed")
	}
	l.truncate(10)
	if got := seqs(); !reflect.DeepEqual(got, []uint64{5}) {
		t.Fatalf("after truncate(10) refs = %v, want [5]", got)
	}
	if u10.inReady {
		t.Error("truncate left a flushed µ-op marked listed")
	}
}
