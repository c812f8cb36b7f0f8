package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func sampleEvent() *Event {
	return &Event{
		Seq: 7, PC: 0x80000010, Disasm: "ld a0, 0(a1)",
		Fetch: 10, Decode: 10, Rename: 11, Dispatch: 11,
		Issue: 13, Complete: 16, Retire: 20,
		Fused: "ldp", TailSeq: 8, TailPC: 0x80000014,
		PairDistance: 1, PairCategory: "same-base", Predicted: true,
	}
}

// TestPipeViewFormat pins the exact O3PipeView record shape Konata
// parses: seven lines, gem5 field order, squashed µ-ops retiring at 0.
func TestPipeViewFormat(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{PipeView: &buf}
	o.Retire(sampleEvent())

	sq := sampleEvent()
	sq.Retire = 0
	sq.Squashed = true
	sq.SquashCycle = 21
	o.Squash(sq)

	want := "O3PipeView:fetch:10:0x80000010:0:1:ld a0, 0(a1)\n" +
		"O3PipeView:decode:10\n" +
		"O3PipeView:rename:11\n" +
		"O3PipeView:dispatch:11\n" +
		"O3PipeView:issue:13\n" +
		"O3PipeView:complete:16\n" +
		"O3PipeView:retire:20:store:0\n" +
		"O3PipeView:fetch:10:0x80000010:0:2:ld a0, 0(a1)\n" +
		"O3PipeView:decode:10\n" +
		"O3PipeView:rename:11\n" +
		"O3PipeView:dispatch:11\n" +
		"O3PipeView:issue:13\n" +
		"O3PipeView:complete:16\n" +
		"O3PipeView:retire:0:store:0\n"
	if got := buf.String(); got != want {
		t.Errorf("pipeview output:\n%s\nwant:\n%s", got, want)
	}
	if err := o.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

// TestEventsNDJSON checks one event marshals to a single JSON line with
// the fusion metadata present and zero-value optionals omitted.
func TestEventsNDJSON(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{Events: &buf}
	o.Retire(sampleEvent())

	out := buf.String()
	if strings.Count(out, "\n") != 1 || !strings.HasSuffix(out, "\n") {
		t.Fatalf("want exactly one newline-terminated line, got %q", out)
	}
	for _, frag := range []string{
		`"seq":7`, `"fused":"ldp"`, `"tail_pc":2147483668`,
		`"pair_category":"same-base"`, `"predicted":true`,
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("event line missing %s: %s", frag, out)
		}
	}
	if strings.Contains(out, "squashed") || strings.Contains(out, "mispredicted") {
		t.Errorf("zero-value optional fields not omitted: %s", out)
	}
}

// TestSampleDeltas checks the interval CSV: header once, counters
// differenced per interval, occupancies passed through.
func TestSampleDeltas(t *testing.T) {
	var buf bytes.Buffer
	o := &Observer{Metrics: &buf, SampleEvery: 100}

	o.Sample(IntervalStats{Cycle: 100, Insts: 80, Uops: 90, Branches: 10, ROBOcc: 12})
	o.Sample(IntervalStats{Cycle: 200, Insts: 200, Uops: 220, Branches: 25,
		BranchMispredicts: 3, Flushes: 3, ROBOcc: 31})

	lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("want header + 2 rows, got %d lines:\n%s", len(lines), buf.String())
	}
	header := strings.Split(lines[0], ",")
	row1 := strings.Split(lines[1], ",")
	row2 := strings.Split(lines[2], ",")
	if len(header) != len(row1) || len(header) != len(row2) {
		t.Fatalf("column count mismatch: header %d, rows %d/%d", len(header), len(row1), len(row2))
	}
	col := func(row []string, name string) string {
		for i, h := range header {
			if h == name {
				return row[i]
			}
		}
		t.Fatalf("no column %q in header %v", name, header)
		return ""
	}
	// First interval differences against zero.
	if got := col(row1, "insts"); got != "80" {
		t.Errorf("row1 insts = %s, want 80", got)
	}
	if got := col(row1, "ipc_milli"); got != "800" {
		t.Errorf("row1 ipc_milli = %s, want 800", got)
	}
	// Second interval is a true delta; occupancy is instantaneous.
	if got := col(row2, "insts"); got != "120" {
		t.Errorf("row2 insts = %s, want 120", got)
	}
	if got := col(row2, "ipc_milli"); got != "1200" {
		t.Errorf("row2 ipc_milli = %s, want 1200", got)
	}
	if got := col(row2, "branch_mispredicts"); got != "3" {
		t.Errorf("row2 branch_mispredicts = %s, want 3", got)
	}
	if got := col(row2, "mpki_milli"); got != "25000" {
		t.Errorf("row2 mpki_milli = %s, want 25000", got)
	}
	if got := col(row2, "rob_occ"); got != "31" {
		t.Errorf("row2 rob_occ = %s, want 31", got)
	}
	if got := col(row2, "flushes"); got != "3" {
		t.Errorf("row2 flushes = %s, want 3", got)
	}
}

type failWriter struct{ n int }

func (w *failWriter) Write(p []byte) (int, error) {
	w.n++
	return 0, errors.New("sink full")
}

// TestStickyError checks the first write failure latches in Err() and
// suppresses all further output attempts.
func TestStickyError(t *testing.T) {
	w := &failWriter{}
	o := &Observer{PipeView: w, Events: w, Metrics: w}
	o.Retire(sampleEvent())
	if o.Err() == nil {
		t.Fatal("write error not latched")
	}
	n := w.n
	o.Retire(sampleEvent())
	o.Sample(IntervalStats{Cycle: 1})
	if w.n != n {
		t.Errorf("observer kept writing after error: %d -> %d writes", n, w.n)
	}
}

// TestObserverRetireNoAllocs pins the observed path's allocation
// contract: once its encode buffer has grown, an Observer writing every
// stream allocates nothing per record.
func TestObserverRetireNoAllocs(t *testing.T) {
	o := &Observer{PipeView: io.Discard, Events: io.Discard, Metrics: io.Discard, SampleEvery: 1}
	ev := sampleEvent()
	s := IntervalStats{Cycle: 100, Insts: 80, TDRetiring: 5}
	o.Retire(ev)
	o.Sample(s)
	allocs := testing.AllocsPerRun(200, func() {
		o.Retire(ev)
		o.Squash(ev)
		o.Sample(s)
	})
	if allocs != 0 {
		t.Errorf("warmed observer allocated %.1f times per record, want 0", allocs)
	}
	if err := o.Err(); err != nil {
		t.Fatalf("Err() = %v", err)
	}
}

// pipeViewFormat is the O3PipeView record as fmt.Fprintf rendered it
// before the append encoder replaced it: the oracle FuzzObsEncoding
// holds appendPipeView to.
const pipeViewFormat = "O3PipeView:fetch:%d:0x%08x:0:%d:%s\n" +
	"O3PipeView:decode:%d\n" +
	"O3PipeView:rename:%d\n" +
	"O3PipeView:dispatch:%d\n" +
	"O3PipeView:issue:%d\n" +
	"O3PipeView:complete:%d\n" +
	"O3PipeView:retire:%d:store:0\n"

func oraclePipeView(ev *Event, sn uint64) string {
	return fmt.Sprintf(pipeViewFormat, ev.Fetch, ev.PC, sn, ev.Disasm,
		ev.Decode, ev.Rename, ev.Dispatch, ev.Issue, ev.Complete, ev.Retire)
}

// oracleHeader and oracleRow are the interval CSV as the []string
// Header/Row API rendered it before AppendRow replaced it.
var oracleHeader = []string{
	"cycle", "insts", "ipc_milli", "uops", "mem_pairs", "idioms",
	"fp_predictions", "fp_mispredicts", "branches", "branch_mispredicts",
	"mpki_milli", "btb_misses", "l1d_misses", "l2_misses", "llc_misses",
	"flushes", "rob_occ", "iq_occ", "lq_occ", "sq_occ", "aq_occ",
	"td_retiring", "td_fused_retiring", "td_frontend_lat", "td_frontend_bw",
	"td_bad_spec", "td_backend_core", "td_backend_mem",
}

func oracleRow(s, prev IntervalStats) string {
	dCycles := s.Cycle - prev.Cycle
	dInsts := s.Insts - prev.Insts
	var ipcMilli, mpkiMilli uint64
	if dCycles > 0 {
		ipcMilli = dInsts * 1000 / dCycles
	}
	if dInsts > 0 {
		mpkiMilli = (s.BranchMispredicts - prev.BranchMispredicts) * 1000000 / dInsts
	}
	cols := []uint64{
		s.Cycle, dInsts, ipcMilli, s.Uops - prev.Uops, s.MemPairs - prev.MemPairs,
		s.Idioms - prev.Idioms, s.FusionPredictions - prev.FusionPredictions,
		s.FusionMispredicts - prev.FusionMispredicts, s.Branches - prev.Branches,
		s.BranchMispredicts - prev.BranchMispredicts, mpkiMilli,
		s.BTBMisses - prev.BTBMisses, s.L1DMisses - prev.L1DMisses,
		s.L2Misses - prev.L2Misses, s.LLCMisses - prev.LLCMisses,
		s.Flushes - prev.Flushes, s.ROBOcc, s.IQOcc, s.LQOcc, s.SQOcc, s.AQOcc,
	}
	var out []string
	for _, v := range cols {
		out = append(out, fmt.Sprint(v))
	}
	sd := func(cur, prev uint64) string { return strconv.FormatInt(int64(cur-prev), 10) }
	out = append(out,
		sd(s.TDRetiring, prev.TDRetiring),
		sd(s.TDFusedRetiring, prev.TDFusedRetiring),
		sd(s.TDFrontendLat, prev.TDFrontendLat),
		sd(s.TDFrontendBW, prev.TDFrontendBW),
		sd(s.TDBadSpec, prev.TDBadSpec),
		sd(s.TDBackendCore, prev.TDBackendCore),
		sd(s.TDBackendMem, prev.TDBackendMem),
	)
	return strings.Join(out, ",") + "\n"
}

// fuzzValues deals field values out of a fuzz input. A quarter of the
// draws are zero (so omitempty fields are both present and absent) and
// the rest span small to full-width numbers; past the input's end every
// draw is zero.
type fuzzValues []byte

func (v *fuzzValues) next() uint64 {
	var w [8]byte
	n := copy(w[:], *v)
	*v = (*v)[n:]
	x := binary.LittleEndian.Uint64(w[:])
	switch x % 4 {
	case 0:
		return 0
	case 1:
		return x >> 40
	case 2:
		return x >> 8
	}
	return x
}

// fill sets every field of the struct rv points to: numbers and bools
// from v, strings from strs in turn. Reflection keeps a field added to
// Event or IntervalStats inside the fuzz test's reach.
func (v *fuzzValues) fill(rv reflect.Value, strs ...string) {
	rv = rv.Elem()
	si := 0
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Field(i)
		switch f.Kind() {
		case reflect.Uint64:
			f.SetUint(v.next())
		case reflect.Int:
			f.SetInt(int64(v.next()))
		case reflect.Bool:
			f.SetBool(v.next()&1 == 1)
		case reflect.String:
			f.SetString(strs[si%len(strs)])
			si++
		default:
			panic("fuzzValues.fill: unhandled field kind " + f.Kind().String())
		}
	}
}

// FuzzObsEncoding holds the append encoders to their oracles: for any
// Event the NDJSON line is exactly json.Marshal(ev) plus a newline and
// the O3PipeView record exactly the fmt.Fprintf rendering, and for any
// pair of snapshots the interval row is the fmt.Sprint/FormatInt
// rendering, wrapped signed top-down deltas included.
func FuzzObsEncoding(f *testing.F) {
	f.Add([]byte{}, "", "", "")
	f.Add([]byte("\x07\x00\x00\x00\x00\x00\x00\x00\x11\x00\x00\x80"), "ld a0, 0(a1)", "ldp", "sameline")
	f.Add(bytes.Repeat([]byte{0xff, 0x3f, 0x81, 0x02}, 80), `<a & "b">\`, "\x00\x1f\x7f", "  ")
	f.Add(bytes.Repeat([]byte{0xfe, 0xff}, 200), "\xff\xfe\xc3", "é\u2028\u2029", "\t\n\r")
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, "R&D", `say "hi"`, "a<b")
	f.Add([]byte{0x7f}, "a>b", `a\b`, "\x7f")
	f.Fuzz(func(t *testing.T, data []byte, s1, s2, s3 string) {
		vals := fuzzValues(data)
		var ev Event
		vals.fill(reflect.ValueOf(&ev), s1, s2, s3)
		var s, prev IntervalStats
		vals.fill(reflect.ValueOf(&prev))
		vals.fill(reflect.ValueOf(&s))

		var pv, events, metrics bytes.Buffer
		o := &Observer{PipeView: &pv, Events: &events, Metrics: &metrics}
		o.Retire(&ev)
		o.Squash(&ev)
		o.Sample(prev)
		o.Sample(s)
		if err := o.Err(); err != nil {
			t.Fatalf("Err() = %v", err)
		}

		if want := oraclePipeView(&ev, 1) + oraclePipeView(&ev, 2); pv.String() != want {
			t.Errorf("pipeview:\n%q\nwant:\n%q", pv.String(), want)
		}
		j, err := json.Marshal(&ev)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(j) + "\n" + string(j) + "\n"; events.String() != want {
			t.Errorf("events:\n%q\nwant:\n%q", events.String(), want)
		}
		want := strings.Join(oracleHeader, ",") + "\n" +
			oracleRow(prev, IntervalStats{}) + oracleRow(s, prev)
		if metrics.String() != want {
			t.Errorf("interval csv:\n%q\nwant:\n%q", metrics.String(), want)
		}
	})
}
