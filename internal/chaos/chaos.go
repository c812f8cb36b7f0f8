// Package chaos is the fault-injection harness for the simulation stack.
// It attacks the committed-path stream on its way into a recording, the
// on-disk trace file format, and the pipeline itself with deterministic,
// seeded fault injectors, and provides campaign drivers that assert the
// stack's failure contract: every injected fault ends in a clean result
// or a typed error (trace.ErrCorrupt, the injected sentinel, or a
// *ooo.SimError); never a panic, a hang, or a silently wrong result.
//
// The injectors are deliberately hostile but reproducible: every fault
// is described by a small struct with an explicit seed, so a campaign
// failure can be replayed as a unit test.
package chaos

import (
	"errors"
	"fmt"
	"math/rand"

	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/trace"
)

// ErrInjected is the sentinel latched by stream faults, so campaign
// drivers (and tests) can tell an injected failure from a genuine one
// with errors.Is.
var ErrInjected = errors.New("chaos: injected fault")

// FaultKind selects what a StreamFault does to the stream.
type FaultKind int

const (
	// FaultError ends the stream after delivering every record, with
	// ErrInjected latched — the shape of an emulator fault at the end.
	FaultError FaultKind = iota
	// FaultTruncate ends the stream early at record At, with ErrInjected
	// latched — a fault mid-emulation.
	FaultTruncate
	// FaultSilentTruncate ends the stream early at record At with no
	// error — the hardest case: the consumer must still terminate
	// cleanly and report exactly the records it was given.
	FaultSilentTruncate
	// FaultCorruptRecord mutates one field of record At into an
	// impossible value (bad opcode, register, access size, or a sequence
	// jump), chosen by Seed.
	FaultCorruptRecord
	// FaultReorder swaps records At and At+1, modeling a source that
	// violates program order.
	FaultReorder

	numFaultKinds
)

// String names the fault for campaign violation messages.
func (k FaultKind) String() string {
	switch k {
	case FaultError:
		return "error"
	case FaultTruncate:
		return "truncate"
	case FaultSilentTruncate:
		return "silent-truncate"
	case FaultCorruptRecord:
		return "corrupt-record"
	case FaultReorder:
		return "reorder"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// StreamFault describes one deterministic stream-level fault.
type StreamFault struct {
	Kind FaultKind
	At   uint64 // record index the fault strikes at
	Seed int64  // selects the corruption variant for FaultCorruptRecord
}

// RandomStreamFault draws a fault with At inside [0, maxAt).
func RandomStreamFault(rng *rand.Rand, maxAt uint64) StreamFault {
	return StreamFault{
		Kind: FaultKind(rng.Intn(int(numFaultKinds))),
		At:   uint64(rng.Int63n(int64(maxAt))),
		Seed: rng.Int63(),
	}
}

// Injected is a trace.Source that streams a recording with one
// StreamFault applied. Delivered reports how many records were actually
// handed out, which is the ground truth a clean consumer must account
// for.
type Injected struct {
	rec     *trace.Recording
	pos     int // next record of rec to read
	f       StreamFault
	n       uint64 // records delivered so far
	err     error
	done    bool
	swapped *emu.Retired // buffered second record of a reorder swap
	fired   bool         // a record was corrupted or reordered
}

// Inject streams rec with the given fault.
func Inject(rec *trace.Recording, f StreamFault) *Injected {
	return &Injected{rec: rec, f: f}
}

// Delivered returns the number of records handed to the consumer.
func (s *Injected) Delivered() uint64 { return s.n }

// Fired reports whether a corrupt or reordered record was handed out.
func (s *Injected) Fired() bool { return s.fired }

// next reads the next record of the underlying recording.
func (s *Injected) next() (emu.Retired, bool) {
	if s.pos >= s.rec.Len() {
		return emu.Retired{}, false
	}
	s.pos++
	return s.rec.At(s.pos - 1), true
}

// Next implements trace.Source.
func (s *Injected) Next() (emu.Retired, bool) {
	if s.done {
		return emu.Retired{}, false
	}
	switch s.f.Kind {
	case FaultTruncate, FaultSilentTruncate:
		if s.n == s.f.At {
			s.done = true
			if s.f.Kind == FaultTruncate {
				s.err = fmt.Errorf("%w: stream truncated at record %d", ErrInjected, s.f.At)
			}
			return emu.Retired{}, false
		}
	case FaultReorder:
		if s.swapped != nil {
			r := *s.swapped
			s.swapped = nil
			s.n++
			return r, true
		}
		if s.n == s.f.At {
			first, ok1 := s.next()
			if !ok1 {
				s.done = true
				return emu.Retired{}, false
			}
			second, ok2 := s.next()
			if !ok2 {
				// Nothing to swap with: deliver the record unharmed.
				s.n++
				return first, true
			}
			s.swapped = &first
			s.fired = true
			s.n++
			return second, true
		}
	}
	r, ok := s.next()
	if !ok {
		s.done = true
		if s.f.Kind == FaultError {
			s.err = fmt.Errorf("%w: emulation fault after %d records", ErrInjected, s.n)
		}
		return emu.Retired{}, false
	}
	if s.f.Kind == FaultCorruptRecord && s.n == s.f.At {
		corruptRecord(&r, s.f.Seed)
		s.fired = true
	}
	s.n++
	return r, true
}

// Err implements trace.Source: injected faults latch like real ones.
func (s *Injected) Err() error { return s.err }

// corruptRecord mutates one field into an impossible value, variant
// chosen by seed.
func corruptRecord(r *emu.Retired, seed int64) {
	switch seed % 4 {
	case 0:
		r.Seq += 100_000 // sequence jump: silent record loss
	case 1:
		r.Inst.Op = isa.Opcode(isa.NumOpcodes + 5)
	case 2:
		r.Inst.Rd = 77 // register index off the end of the RAT
	default:
		r.MemSize = 99 // impossible access size
	}
}
