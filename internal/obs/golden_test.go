package obs_test

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenProg mixes pair-able loads, dependent ALU work and a loop
// branch, so the golden trace exercises fused retire events and the
// histogram paths in a few hundred µ-ops. Squash records come from the
// deterministic chaos-flush hook in observedRun (branch mispredicts
// stall fetch in this model; only flushes squash).
const goldenProg = `
	.data
arr:
	.zero 512
	.text
_start:
	li t0, 12
	la t1, arr
loop:
	ld a0, 0(t1)
	ld a1, 8(t1)
	add a2, a0, a1
	sd a2, 16(t1)
	addi t1, t1, 8
	addi t0, t0, -1
	bnez t0, loop
	li a7, 93
	li a0, 0
	ecall
`

// goldenRecording records goldenProg's committed stream once.
func goldenRecording(t *testing.T) *trace.Recording {
	t.Helper()
	prog, err := asm.Assemble(goldenProg)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 200))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rec
}

// observedRun replays rec with every observer output captured.
func observedRun(t *testing.T, rec *trace.Recording) (pipeview, events, metrics []byte) {
	t.Helper()
	var pv, ev, m bytes.Buffer
	runObserved(t, rec, &obs.Observer{PipeView: &pv, Events: &ev, Metrics: &m, SampleEvery: 64})
	return pv.Bytes(), ev.Bytes(), m.Bytes()
}

// runObserved replays rec under the golden configuration with ob
// attached (nil runs unobserved) and returns the retired µ-op count.
func runObserved(t testing.TB, rec *trace.Recording, ob *obs.Observer) uint64 {
	t.Helper()
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.Obs = ob
	// Seeded chaos flushes give the trace deterministic squash records.
	cfg.ChaosFlushInterval = 60
	cfg.ChaosSeed = 7
	st, err := ooo.New(cfg, rec).Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if ob != nil {
		if err := ob.Err(); err != nil {
			t.Fatalf("observer: %v", err)
		}
	}
	return st.CommittedUops
}

// checkGolden compares got with testdata/name byte-for-byte, rewriting
// the file first under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("update golden: %v", err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s output drifted from the golden file (%d vs %d bytes):\n%s\n"+
			"re-run with -update if the change is intentional",
			name, len(got), len(want), firstDiff(got, want))
	}
}

// TestPipeViewGolden pins the O3PipeView export byte-for-byte. The
// golden files are committed; `go test ./internal/obs -run Golden
// -update` regenerates them after an intentional format or model
// change.
func TestPipeViewGolden(t *testing.T) {
	got, _, _ := observedRun(t, goldenRecording(t))
	checkGolden(t, "pipeview.golden", got)
}

// TestEventsGolden pins the NDJSON event stream byte-for-byte.
func TestEventsGolden(t *testing.T) {
	_, got, _ := observedRun(t, goldenRecording(t))
	checkGolden(t, "events.golden", got)
}

// TestIntervalsGolden pins the interval CSV byte-for-byte.
func TestIntervalsGolden(t *testing.T) {
	_, _, got := observedRun(t, goldenRecording(t))
	checkGolden(t, "intervals.golden", got)
}

// TestIntervalOnlySkipsEvents checks that an observer with only the
// interval CSV attached writes the same series as a fully observed run
// and costs no per-µ-op allocations: the pipeline must not build
// events (or disassemble) for streams nobody reads.
func TestIntervalOnlySkipsEvents(t *testing.T) {
	rec := goldenRecording(t)
	var m bytes.Buffer
	runObserved(t, rec, &obs.Observer{Metrics: &m, SampleEvery: 64})
	checkGolden(t, "intervals.golden", m.Bytes())

	var uops uint64
	off := testing.AllocsPerRun(5, func() { uops = runObserved(t, rec, nil) })
	on := testing.AllocsPerRun(5, func() {
		runObserved(t, rec, &obs.Observer{Metrics: io.Discard, SampleEvery: 64})
	})
	// The observer itself and its one encode buffer are the only
	// allocations allowed beyond the unobserved run.
	if on > off+4 {
		t.Errorf("interval-only run allocated %.0f times, unobserved %.0f (%d µ-ops retired): "+
			"want no per-µ-op cost", on, off, uops)
	}
}

// firstDiff renders the first differing line pair for the failure
// message.
func firstDiff(got, want []byte) string {
	g := strings.Split(string(got), "\n")
	w := strings.Split(string(want), "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got:  %s\n  want: %s", i+1, g[i], w[i])
		}
	}
	return "one output is a prefix of the other"
}

// TestReplayDeterminism is the tracer's determinism contract: two
// replays of one recording must produce byte-identical event, pipeview
// and interval streams.
func TestReplayDeterminism(t *testing.T) {
	rec := goldenRecording(t)
	pv1, ev1, m1 := observedRun(t, rec)
	pv2, ev2, m2 := observedRun(t, rec)
	if !bytes.Equal(pv1, pv2) {
		t.Error("O3PipeView output differs between two replays of the same recording")
	}
	if !bytes.Equal(ev1, ev2) {
		t.Error("NDJSON event stream differs between two replays of the same recording")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("interval metrics CSV differs between two replays of the same recording")
	}
	if len(pv1) == 0 || len(ev1) == 0 || len(m1) == 0 {
		t.Fatalf("observed run produced empty streams (pipeview %d, events %d, metrics %d bytes)",
			len(pv1), len(ev1), len(m1))
	}
}

// TestGoldenHasFusionAndSquash guards the golden workload's coverage:
// the trace must contain at least one fused retire and one squashed
// record, or the golden test would silently stop exercising those
// paths.
func TestGoldenHasFusionAndSquash(t *testing.T) {
	pv, ev, _ := observedRun(t, goldenRecording(t))
	if !bytes.Contains(ev, []byte(`"fused":`)) {
		t.Error("event stream has no fused µ-op; the golden workload should fuse pairs")
	}
	if !bytes.Contains(ev, []byte(`"squashed":true`)) {
		t.Error("event stream has no squash; the golden workload should mispredict at least once")
	}
	if !bytes.Contains(pv, []byte("O3PipeView:retire:0:store:0")) {
		t.Error("pipeview has no squashed record (retire tick 0)")
	}
}
