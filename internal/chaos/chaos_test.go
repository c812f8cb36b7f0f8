package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"regexp"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/ooo"
	"helios/internal/trace"
)

// chaosProgram mixes dependent ALU work, pairable loads and stores, and
// short branches — enough to exercise every fusion path while staying
// small enough to replay hundreds of times.
const chaosProgram = `
	.data
buf:
	.zero 2048
	.text
_start:
	la s0, buf
	li s1, 200
	li t0, 3
	li t1, 5
loop:
	ld t2, 0(s0)
	ld t3, 8(s0)
	add t2, t2, t0
	xor t3, t3, t1
	sd t2, 16(s0)
	sd t3, 24(s0)
	slli t4, t0, 2
	add t4, t4, s0
	ld t5, 32(s0)
	beqz t5, skip
	addi t1, t1, 1
skip:
	addi t0, t0, 1
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
`

// buildRecording assembles and records the chaos program's committed
// stream once; campaigns replay it.
func buildRecording(t testing.TB) *trace.Recording {
	t.Helper()
	prog, err := asm.Assemble(chaosProgram)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 0))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	rec.Name = "chaos"
	rec.MaxInsts = uint64(rec.Len())
	return rec
}

// TestFaultInjectionContract is the chaos driver: it fires the full
// campaign set — stream faults, file faults, flush storms, randomized
// machine configurations — and asserts the stack-wide failure contract:
// several hundred injected faults, every one ending in a clean
// correctly-accounted result or a typed structured error; zero panics,
// hangs, silent truncations or architectural divergences.
func TestFaultInjectionContract(t *testing.T) {
	rec := buildRecording(t)

	var total Report
	total.Merge(StreamCampaign(rec, 120, 0xC0FFEE))
	total.Merge(FileCampaign(rec, 80, 0xBEEF))
	storms, randomCfgs := 24, 30
	if testing.Short() {
		storms, randomCfgs = 6, 6
	}
	total.Merge(PipelineCampaign(rec, storms, randomCfgs, 0xFACADE))

	t.Log(total.String())
	if total.Runs < 200 {
		t.Errorf("only %d injections; the contract demands at least 200", total.Runs)
	}
	for _, v := range total.Violations {
		t.Errorf("violation: %s", v)
	}
	if total.Clean+total.TypedErrors+len(total.Violations) != total.Runs {
		t.Errorf("report does not add up: %+v", total)
	}
	if total.Clean == 0 || total.TypedErrors == 0 {
		t.Errorf("campaign not exercising both outcomes: %s", total.String())
	}
}

// TestInjectorSilentTruncation pins the hardest stream case: the source
// just stops early with no error, so the recording is a clean prefix and
// its replay must commit exactly what was delivered.
func TestInjectorSilentTruncation(t *testing.T) {
	rec := buildRecording(t)
	inj := Inject(rec, StreamFault{Kind: FaultSilentTruncate, At: 500})
	got, err := trace.Record(inj)
	if err != nil {
		t.Fatalf("silent truncation must record cleanly, got %v", err)
	}
	if inj.Delivered() != 500 || got.Len() != 500 {
		t.Fatalf("delivered %d records, recorded %d, want 500", inj.Delivered(), got.Len())
	}
	st, err := ooo.New(ooo.DefaultConfig(0), got).RunChecked(64)
	if err != nil {
		t.Fatalf("replay of the truncated recording: %v", err)
	}
	if st.CommittedInsts != 500 {
		t.Errorf("committed %d instructions of 500 delivered", st.CommittedInsts)
	}
}

// TestInjectorSentinelVisible checks an injected stream error stays
// identifiable through Record, which makes no recording of the stream.
func TestInjectorSentinelVisible(t *testing.T) {
	rec := buildRecording(t)
	for _, kind := range []FaultKind{FaultError, FaultTruncate} {
		got, err := trace.Record(Inject(rec, StreamFault{Kind: kind, At: 300}))
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("%v: err = %v, want the ErrInjected sentinel", kind, err)
		}
		if got != nil {
			t.Errorf("%v: Record made a %d-record recording of a faulting stream", kind, got.Len())
		}
	}
}

// TestInjectorReorderCaught checks a program-order violation from the
// source is refused where the recording is built, naming the record
// found out of place.
func TestInjectorReorderCaught(t *testing.T) {
	rec := buildRecording(t)
	_, err := trace.Record(Inject(rec, StreamFault{Kind: FaultReorder, At: 100}))
	if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("err = %v, want an error wrapping trace.ErrCorrupt", err)
	}
	if !namesSeq(err, 101) {
		t.Errorf("err = %v, want it to name seq 101", err)
	}
}

// TestCorruptRecordsRejected feeds each corruptRecord variant and a
// reorder to all three Recording constructors — Record over a live
// stream, FromRecords, and ReadFrom over a written trace file — and
// checks each refuses it with an error wrapping trace.ErrCorrupt that
// names the bad record's seq.
func TestCorruptRecordsRejected(t *testing.T) {
	rec := buildRecording(t)
	const at = 40
	cases := []struct {
		name string
		f    StreamFault
	}{
		{"seq-jump", StreamFault{Kind: FaultCorruptRecord, At: at, Seed: 0}},
		{"bad-opcode", StreamFault{Kind: FaultCorruptRecord, At: at, Seed: 1}},
		{"bad-rd", StreamFault{Kind: FaultCorruptRecord, At: at, Seed: 2}},
		{"bad-memsize", StreamFault{Kind: FaultCorruptRecord, At: at, Seed: 3}},
		{"reorder", StreamFault{Kind: FaultReorder, At: at}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// The faulty stream, materialized: record `at` is the bad one.
			var recs []emu.Retired
			inj := Inject(rec, tc.f)
			for r, ok := inj.Next(); ok; r, ok = inj.Next() {
				recs = append(recs, r)
			}
			bad := recs[at].Seq
			check := func(how string, got *trace.Recording, err error) {
				t.Helper()
				if !errors.Is(err, trace.ErrCorrupt) || got != nil {
					t.Fatalf("%s = (%v, %v), want no recording and an error wrapping trace.ErrCorrupt", how, got, err)
				}
				if !namesSeq(err, bad) {
					t.Errorf("%s: %v does not name seq %d", how, err, bad)
				}
			}

			got, err := trace.Record(Inject(rec, tc.f))
			check("Record", got, err)

			got, err = trace.FromRecords(rec.Name, rec.MaxInsts, append([]emu.Retired(nil), recs...))
			check("FromRecords", got, err)

			// A valid recording cannot hold the bad record, so the file
			// is written from a copy whose shared slice is overwritten
			// after it was built — exactly what a hostile file holds.
			file, err := trace.FromRecords(rec.Name, rec.MaxInsts, append([]emu.Retired(nil), rec.Records()...))
			if err != nil {
				t.Fatal(err)
			}
			copy(file.Records(), recs)
			var buf bytes.Buffer
			if _, err := file.WriteTo(&buf); err != nil {
				t.Fatal(err)
			}
			got, err = trace.ReadFrom(&buf)
			check("ReadFrom", got, err)
		})
	}
}

// namesSeq reports whether err's message names the record "seq n".
func namesSeq(err error, n uint64) bool {
	return regexp.MustCompile(fmt.Sprintf(`\bseq %d\b`, n)).MatchString(err.Error())
}
