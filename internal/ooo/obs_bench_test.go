package ooo

import (
	"fmt"
	"io"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/obs"
	"helios/internal/trace"
)

// benchRecording records the pairedLoads workload once so every
// benchmark iteration replays the identical stream with zero emulation
// cost in the measured loop.
func benchRecording(b *testing.B) *trace.Recording {
	b.Helper()
	prog, err := asm.Assemble(pairedLoads)
	if err != nil {
		b.Fatalf("assemble: %v", err)
	}
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 20000))
	if err != nil {
		b.Fatalf("record: %v", err)
	}
	return rec
}

func benchRun(b *testing.B, rec *trace.Recording, ob *obs.Observer) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		cfg := DefaultConfig(fusion.ModeHelios)
		cfg.Obs = ob
		st, err := New(cfg, rec.Replay()).Run()
		if err != nil {
			b.Fatalf("run: %v", err)
		}
		cycles += st.Cycles
	}
	// cycles/op feeds the BENCH_*.json trajectory: benchsnap derives
	// simulated-cycles/sec from it (see EXPERIMENTS.md).
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
}

// BenchmarkPipelineObsOff is the overhead-contract baseline: the same
// workload as BenchmarkPipelineObsOn with observability disabled. The
// allocs/op delta between the two is the observability cost; Off must
// match a build without the hooks (nil-check only, no allocations).
func BenchmarkPipelineObsOff(b *testing.B) {
	benchRun(b, benchRecording(b), nil)
}

// BenchmarkPipelineObsOn measures full tracing + sampling against
// discarded sinks, isolating event-construction cost from I/O.
func BenchmarkPipelineObsOn(b *testing.B) {
	benchRun(b, benchRecording(b), &obs.Observer{
		PipeView:    io.Discard,
		Events:      io.Discard,
		Metrics:     io.Discard,
		SampleEvery: 1000,
	})
}

// TestCommitObsOffNoAllocs pins the disabled-path contract at the exact
// hook site: with Obs nil, the per-retire accounting (counters plus the
// three histograms plus the nil-checked event hook) allocates nothing.
func TestCommitObsOffNoAllocs(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeNoFusion), trace.Func(func() (emu.Retired, bool) {
		return emu.Retired{}, false
	}))
	u := &pUop{seq: 1, renamedAt: 5, issuedAt: 8, completeAt: 13}
	allocs := testing.AllocsPerRun(200, func() { p.accountCommit(u) })
	if allocs != 0 {
		t.Errorf("accountCommit with obs disabled allocated %.1f times per run, want 0", allocs)
	}
}

// TestDisasmCacheChecksInst pins the per-PC disassembly cache: a PC
// that holds two different instructions in turn must render each one,
// not the one cached first.
func TestDisasmCacheChecksInst(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeNoFusion), trace.Func(func() (emu.Retired, bool) {
		return emu.Retired{}, false
	}))
	a := emu.Retired{PC: 0x1000, Inst: isa.Inst{Op: isa.OpADDI, Rd: 10, Rs1: 10, Imm: 1}}
	b := emu.Retired{PC: 0x1000, Inst: isa.Inst{Op: isa.OpLD, Rd: 11, Rs1: 2, Imm: 8}}
	for _, r := range []emu.Retired{a, b, a, a, b} {
		if got, want := p.disasm(&r), fmt.Sprint(r.Inst); got != want {
			t.Errorf("disasm at %#x = %q, want %q", r.PC, got, want)
		}
	}
}
