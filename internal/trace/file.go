package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"helios/internal/emu"
	"helios/internal/isa"
)

// Binary trace file format, gzip-framed. Inside the gzip stream:
//
//	magic   [4]byte  "HTRC"
//	version uint16   (little endian, currently 1)
//	namelen uint16   + namelen bytes of workload name (UTF-8)
//	bound   uint64   the MaxInsts the recording was captured with
//	count   uint64   number of records
//	count × 55-byte records (see encodeRecord)
//
// gzip's trailing CRC over the uncompressed payload catches mid-stream
// corruption; the magic/version header catches wrong or stale files.

var fileMagic = [4]byte{'H', 'T', 'R', 'C'}

// FileVersion is the current trace file format version.
const FileVersion = 1

const recordSize = 55

// Hostile-header bounds: a trace header must stay within these before a
// single byte of it is trusted for allocation. Real workload names are a
// dozen bytes; real recordings are millions of records, not 2^40.
const (
	maxNameLen     = 1 << 12
	maxFileRecords = 1 << 40
)

// FrameOffsets returns every frame boundary of the uncompressed payload
// of a trace file with the given name length and record count: after the
// magic, version, name length, name, bound and count fields, then after
// each record. Fault-injection tooling (internal/chaos) truncates the
// payload at each of these offsets to prove ReadFrom fails loudly at
// every one.
func FrameOffsets(nameLen, count int) []int {
	offs := []int{4, 6, 8, 8 + nameLen, 16 + nameLen, 24 + nameLen}
	base := 24 + nameLen
	for i := 1; i <= count; i++ {
		offs = append(offs, base+i*recordSize)
	}
	return offs
}

// flag bits in the record's flags byte.
const flagTaken = 1 << 0

func encodeRecord(buf *[recordSize]byte, r emu.Retired) {
	le := binary.LittleEndian
	le.PutUint64(buf[0:], r.Seq)
	le.PutUint64(buf[8:], r.PC)
	le.PutUint64(buf[16:], r.NextPC)
	le.PutUint16(buf[24:], uint16(r.Inst.Op))
	buf[26] = uint8(r.Inst.Rd)
	buf[27] = uint8(r.Inst.Rs1)
	buf[28] = uint8(r.Inst.Rs2)
	le.PutUint64(buf[29:], uint64(r.Inst.Imm))
	le.PutUint64(buf[37:], r.EA)
	buf[45] = r.MemSize
	var flags uint8
	if r.Taken {
		flags |= flagTaken
	}
	buf[46] = flags
	le.PutUint64(buf[47:], r.StoreVal)
}

func decodeRecord(buf *[recordSize]byte) emu.Retired {
	le := binary.LittleEndian
	return emu.Retired{
		Seq:    le.Uint64(buf[0:]),
		PC:     le.Uint64(buf[8:]),
		NextPC: le.Uint64(buf[16:]),
		Inst: isa.Inst{
			Op:  isa.Opcode(le.Uint16(buf[24:])),
			Rd:  isa.Reg(buf[26]),
			Rs1: isa.Reg(buf[27]),
			Rs2: isa.Reg(buf[28]),
			Imm: int64(le.Uint64(buf[29:])),
		},
		EA:       le.Uint64(buf[37:]),
		MemSize:  buf[45],
		Taken:    buf[46]&flagTaken != 0,
		StoreVal: le.Uint64(buf[47:]),
	}
}

// countingWriter tracks compressed bytes written to the underlying writer.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteTo serializes the recording to w in the versioned gzip-framed
// binary format and returns the number of (compressed) bytes written.
// It implements io.WriterTo.
func (r *Recording) WriteTo(w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	zw := gzip.NewWriter(cw)

	hdr := make([]byte, 0, 32+len(r.Name))
	hdr = append(hdr, fileMagic[:]...)
	hdr = binary.LittleEndian.AppendUint16(hdr, FileVersion)
	if len(r.Name) == 0 {
		return 0, fmt.Errorf("trace: recording has no workload name")
	}
	if len(r.Name) > maxNameLen {
		return 0, fmt.Errorf("trace: workload name too long (%d bytes)", len(r.Name))
	}
	hdr = binary.LittleEndian.AppendUint16(hdr, uint16(len(r.Name)))
	hdr = append(hdr, r.Name...)
	hdr = binary.LittleEndian.AppendUint64(hdr, r.MaxInsts)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(r.recs)))
	if _, err := zw.Write(hdr); err != nil {
		return cw.n, err
	}

	var buf [recordSize]byte
	for _, rec := range r.recs {
		encodeRecord(&buf, rec)
		if _, err := zw.Write(buf[:]); err != nil {
			return cw.n, err
		}
	}
	if err := zw.Close(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// ReadFrom deserializes a recording previously written by WriteTo. It
// fails loudly on non-trace input, version mismatches, hostile headers
// (absurd name lengths or record counts), truncation, trailing garbage,
// payload corruption (the gzip CRC is verified before the recording is
// returned) and well-framed records the pipeline cannot simulate (an
// error wrapping ErrCorrupt).
func ReadFrom(rd io.Reader) (*Recording, error) {
	zr, err := gzip.NewReader(bufio.NewReader(rd))
	if err != nil {
		return nil, fmt.Errorf("trace: not a trace file (gzip: %w)", err)
	}
	defer zr.Close()
	// A trace file is exactly one gzip stream: anything after it is not
	// ours, and single-stream mode makes the final EOF verify the CRC.
	zr.Multistream(false)

	var fixed [8]byte // magic + version + namelen
	if _, err := io.ReadFull(zr, fixed[:]); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", err)
	}
	if *(*[4]byte)(fixed[0:4]) != fileMagic {
		return nil, fmt.Errorf("trace: bad magic %q", fixed[0:4])
	}
	if v := binary.LittleEndian.Uint16(fixed[4:]); v != FileVersion {
		return nil, fmt.Errorf("trace: unsupported file version %d (want %d)", v, FileVersion)
	}
	nameLen := binary.LittleEndian.Uint16(fixed[6:])
	if nameLen == 0 {
		return nil, fmt.Errorf("trace: empty workload name")
	}
	if int(nameLen) > maxNameLen {
		return nil, fmt.Errorf("trace: implausible workload name length %d", nameLen)
	}
	name := make([]byte, nameLen)
	if _, err := io.ReadFull(zr, name); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", err)
	}
	var tail [16]byte // bound + count
	if _, err := io.ReadFull(zr, tail[:]); err != nil {
		return nil, fmt.Errorf("trace: truncated header: %w", err)
	}
	bound := binary.LittleEndian.Uint64(tail[0:])
	count := binary.LittleEndian.Uint64(tail[8:])
	if count > maxFileRecords {
		return nil, fmt.Errorf("trace: implausible record count %d", count)
	}

	// Grow incrementally: a corrupt count must not pre-allocate the world.
	recs := make([]emu.Retired, 0, min(count, 1<<20))
	var buf [recordSize]byte
	for i := uint64(0); i < count; i++ {
		if _, err := io.ReadFull(zr, buf[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return nil, fmt.Errorf("trace: truncated after %d of %d records", i, count)
			}
			return nil, fmt.Errorf("trace: record %d: %w", i, err)
		}
		r := decodeRecord(&buf)
		if err := checkRecord(i, &r); err != nil {
			return nil, err
		}
		recs = append(recs, r)
	}
	// Drain to the end of the gzip stream: this forces the CRC/length
	// trailer check (catching mid-stream corruption) and rejects files
	// whose payload holds more than the header's count promised.
	var extra [1]byte
	if n, err := io.ReadFull(zr, extra[:]); n != 0 || !errors.Is(err, io.EOF) {
		if n != 0 {
			return nil, fmt.Errorf("trace: trailing data after %d records", count)
		}
		return nil, fmt.Errorf("trace: corrupt stream trailer: %w", err)
	}
	return &Recording{Name: string(name), MaxInsts: bound, recs: recs}, nil
}
