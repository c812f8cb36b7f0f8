package trace

import (
	"errors"
	"testing"

	"helios/internal/emu"
	"helios/internal/isa"
)

// countSource yields n records with consecutive Seq, then ends with err.
type countSource struct {
	n, i int
	err  error
}

func (s *countSource) Next() (emu.Retired, bool) {
	if s.i >= s.n {
		return emu.Retired{}, false
	}
	r := emu.Retired{Seq: uint64(s.i), PC: uint64(s.i) * 4, Inst: isa.Inst{Op: isa.OpADDI}}
	s.i++
	return r, true
}

func (s *countSource) Err() error { return s.err }

// TestRecordExactSize pins the chunked drain: whatever the stream length
// (empty, inside one chunk, on and across chunk boundaries), the
// recording holds every record in order with no spare capacity, and a
// stream that faults mid-way yields its error and no recording.
func TestRecordExactSize(t *testing.T) {
	for _, n := range []int{0, 1, recordChunk - 1, recordChunk, recordChunk + 1, 3*recordChunk + 17} {
		rec, err := Record(&countSource{n: n})
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if rec.Len() != n || cap(rec.recs) != len(rec.recs) {
			t.Errorf("n=%d: len %d cap %d, want len %d and cap == len", n, rec.Len(), cap(rec.recs), n)
		}
		for i := 0; i < rec.Len(); i++ {
			if rec.At(i).Seq != uint64(i) {
				t.Fatalf("n=%d: record %d has seq %d", n, i, rec.At(i).Seq)
			}
		}
	}

	fault := errors.New("emulation fault")
	rec, err := Record(&countSource{n: recordChunk + 5, err: fault})
	if !errors.Is(err, fault) || rec != nil {
		t.Errorf("faulting source: Record = (%v, %v), want (nil, %v)", rec, err, fault)
	}
}
