package trace

import (
	"errors"
	"fmt"

	"helios/internal/emu"
	"helios/internal/isa"
)

// ErrCorrupt is wrapped by every error a Recording constructor returns
// for a record the pipeline cannot simulate. Record, FromRecords and
// ReadFrom are the stream's one trust boundary: each checks every record
// once, so a corrupt Recording cannot exist and replays never re-check.
var ErrCorrupt = errors.New("trace: corrupt record")

// checkRecord rejects the i-th record of a stream if the pipeline
// cannot safely simulate it: a Seq other than i (the pipeline indexes
// the recording by seq, so a jump or reorder would misplace every later
// record) or a field that would index out of the machine's tables.
func checkRecord(i uint64, r *emu.Retired) error {
	switch {
	case r.Seq != i:
		return fmt.Errorf("%w: seq %d out of sequence, want %d", ErrCorrupt, r.Seq, i)
	case int(r.Inst.Op) >= isa.NumOpcodes:
		return fmt.Errorf("%w: seq %d: opcode %d out of range", ErrCorrupt, r.Seq, r.Inst.Op)
	case int(r.Inst.Rd) >= isa.NumRegs || int(r.Inst.Rs1) >= isa.NumRegs || int(r.Inst.Rs2) >= isa.NumRegs:
		return fmt.Errorf("%w: seq %d: register out of range (rd=%d rs1=%d rs2=%d)",
			ErrCorrupt, r.Seq, r.Inst.Rd, r.Inst.Rs1, r.Inst.Rs2)
	case r.MemSize > 8:
		return fmt.Errorf("%w: seq %d: impossible access size %d", ErrCorrupt, r.Seq, r.MemSize)
	}
	return nil
}

// Recording is a materialized committed-path stream: the record-once half
// of record-once/replay-many. Record i has Seq i. It is immutable once
// built and safe for concurrent replay from many goroutines.
type Recording struct {
	// Name identifies the traced workload (metadata only).
	Name string
	// MaxInsts is the instruction bound the recording was captured with
	// (0 = the stream ran to its natural end).
	MaxInsts uint64

	recs []emu.Retired
}

// recordChunk is how many records Record buffers per chunk while it
// drains a source (288 KiB of emu.Retired): large enough that chunk
// bookkeeping is noise, small enough that a short stream stays small.
const recordChunk = 4096

// Record drains src into a new Recording. If the stream ended on an
// emulation fault, or handed over a corrupt record (ErrCorrupt), the
// error is returned and no recording is produced — a truncated or
// malformed trace must never masquerade as a complete one.
//
// The stream's length is not known up front, so Record fills fixed-size
// chunks and copies them once into an exactly-sized slice: no record is
// copied while the buffer grows, and the recording holds no spare
// capacity for its lifetime.
func Record(src Source) (*Recording, error) {
	var full [][]emu.Retired
	cur := make([]emu.Retired, 0, recordChunk)
	for n := uint64(0); ; n++ {
		r, ok := src.Next()
		if !ok {
			break
		}
		if err := checkRecord(n, &r); err != nil {
			return nil, err
		}
		if len(cur) == recordChunk {
			full = append(full, cur)
			cur = make([]emu.Retired, 0, recordChunk)
		}
		cur = append(cur, r)
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	recs := make([]emu.Retired, 0, len(full)*recordChunk+len(cur))
	for _, c := range full {
		recs = append(recs, c...)
	}
	return &Recording{recs: append(recs, cur...)}, nil
}

// FromRecords builds a Recording directly from records (tests and
// synthetic streams), which it takes ownership of. Like Record, it
// rejects a corrupt record with an error wrapping ErrCorrupt.
func FromRecords(name string, maxInsts uint64, recs []emu.Retired) (*Recording, error) {
	for i := range recs {
		if err := checkRecord(uint64(i), &recs[i]); err != nil {
			return nil, err
		}
	}
	return &Recording{Name: name, MaxInsts: maxInsts, recs: recs}, nil
}

// Len returns the number of recorded µ-ops.
func (r *Recording) Len() int { return len(r.recs) }

// At returns the i-th recorded µ-op.
func (r *Recording) At(i int) emu.Retired { return r.recs[i] }

// Records returns the recorded µ-ops in program order, record i holding
// Seq i, for consumers that read the stream in place. The slice is the
// recording's own and is shared by every replay: it must not be
// modified.
func (r *Recording) Records() []emu.Retired { return r.recs }
