package trace_test

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"testing"

	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/ooo"
	"helios/internal/trace"
)

// fuzzSeedRecording builds a small deterministic recording for seeding
// the fuzz corpus and exercising the hardening paths.
func fuzzSeedRecording(n int) *trace.Recording {
	recs := make([]emu.Retired, n)
	for i := range recs {
		recs[i] = emu.Retired{
			Seq:    uint64(i),
			PC:     0x1000 + uint64(i)*4,
			NextPC: 0x1000 + uint64(i)*4 + 4,
			Inst:   isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1},
		}
	}
	rec, err := trace.FromRecords("fuzz", uint64(n), recs)
	if err != nil {
		panic(err)
	}
	return rec
}

// FuzzReadFrom hammers the trace file reader with arbitrary bytes: it
// must never panic, never allocate absurdly, and any input it accepts
// must survive a write/read round trip unchanged.
func FuzzReadFrom(f *testing.F) {
	for _, seed := range readFromSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input: metadata must be sane and the recording must
		// round-trip bit-identically.
		if got.Name == "" {
			t.Fatal("accepted a recording with an empty name")
		}
		var out bytes.Buffer
		if _, werr := got.WriteTo(&out); werr != nil {
			t.Fatalf("accepted recording fails to re-serialize: %v", werr)
		}
		again, rerr := trace.ReadFrom(&out)
		if rerr != nil {
			t.Fatalf("round trip of accepted input failed: %v", rerr)
		}
		if again.Name != got.Name || again.MaxInsts != got.MaxInsts || again.Len() != got.Len() {
			t.Fatalf("round trip changed metadata: (%q,%d,%d) vs (%q,%d,%d)",
				again.Name, again.MaxInsts, again.Len(), got.Name, got.MaxInsts, got.Len())
		}
		for i := 0; i < got.Len(); i++ {
			if again.At(i) != got.At(i) {
				t.Fatalf("round trip changed record %d", i)
			}
		}
	})
}

// readFromSeeds is FuzzReadFrom's seed corpus: a valid trace file, its
// truncations, a bit flip, and inputs that are not trace files at all.
func readFromSeeds(f *testing.F) [][]byte {
	var buf bytes.Buffer
	if _, err := fuzzSeedRecording(16).WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x10
	return [][]byte{
		valid,
		valid[:len(valid)/2],
		valid[:11],
		flipped,
		{},
		[]byte("HTRC garbage that is not gzip"),
	}
}

// FuzzReplayAccepted fuzzes the claim the pipeline rests on: a recording
// is validated once, where it is built, so every recording ReadFrom
// accepts must replay under all six fusion modes, invariants checked
// throughout and at the end, without error and committing exactly Len()
// instructions.
// A mutated file rarely keeps a valid gzip CRC, so the fuzzer's bytes
// are read both as a trace file and as the uncompressed payload of one.
// It is seeded from FuzzReadFrom's corpus, as files and as payloads.
func FuzzReplayAccepted(f *testing.F) {
	for _, seed := range readFromSeeds(f) {
		f.Add(seed)
		if payload, err := gunzip(seed); err == nil {
			f.Add(payload)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, file := range [][]byte{data, gzipped(data).Bytes()} {
			rec, err := trace.ReadFrom(bytes.NewReader(file))
			if err != nil {
				continue
			}
			for _, mode := range fusion.Modes {
				p := ooo.New(ooo.DefaultConfig(mode), rec)
				st, err := p.RunChecked(16)
				if err == nil {
					err = p.CheckInvariants() // the drained machine too
				}
				if err != nil {
					t.Fatalf("%v: accepted %d-record recording fails to replay: %v", mode, rec.Len(), err)
				}
				if st.CommittedInsts != uint64(rec.Len()) {
					t.Fatalf("%v: committed %d of %d recorded instructions", mode, st.CommittedInsts, rec.Len())
				}
			}
		}
	})
}

// gunzip returns the uncompressed payload of a gzip stream.
func gunzip(file []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(file))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	return io.ReadAll(zr)
}

// TestHostileHeaders verifies the pre-allocation bounds: zero and
// oversized name lengths and absurd record counts are rejected outright.
func TestHostileHeaders(t *testing.T) {
	header := func(nameLen uint16, name string, count uint64) []byte {
		var p []byte
		p = append(p, 'H', 'T', 'R', 'C')
		p = binary.LittleEndian.AppendUint16(p, trace.FileVersion)
		p = binary.LittleEndian.AppendUint16(p, nameLen)
		p = append(p, name...)
		p = binary.LittleEndian.AppendUint64(p, 0) // bound
		p = binary.LittleEndian.AppendUint64(p, count)
		return p
	}
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"zero-name-len", header(0, "", 0), "empty workload name"},
		{"oversized-name-len", header(0xffff, "x", 0), "implausible workload name length"},
		{"absurd-count", header(1, "x", 1<<50), "implausible record count"},
		{"count-beyond-payload", header(1, "x", 100), "truncated after"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := trace.ReadFrom(gzipped(tc.payload))
			if err == nil {
				t.Fatal("hostile header accepted")
			}
			if !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestTrailerVerified checks that payload corruption caught only by the
// gzip CRC, and trailing bytes beyond the promised record count, both
// fail the read instead of yielding a silently wrong recording.
func TestTrailerVerified(t *testing.T) {
	rec := fuzzSeedRecording(8)
	var buf bytes.Buffer
	if _, err := rec.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}

	t.Run("trailing-records", func(t *testing.T) {
		// Rebuild the payload with one extra record appended but the
		// original count in the header.
		payload := rawPayload(t, buf.Bytes())
		extra := append(append([]byte(nil), payload...), make([]byte, 55)...)
		if _, err := trace.ReadFrom(gzipped(extra)); err == nil {
			t.Error("trailing records accepted")
		}
	})
	t.Run("writeto-empty-name", func(t *testing.T) {
		anon, err := trace.FromRecords("", 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := anon.WriteTo(&bytes.Buffer{}); err == nil {
			t.Error("WriteTo accepted an unnamed recording")
		}
	})
}

// rawPayload gunzips a trace file back to its framed payload.
func rawPayload(t *testing.T, file []byte) []byte {
	t.Helper()
	payload, err := gunzip(file)
	if err != nil {
		t.Fatal(err)
	}
	return payload
}
