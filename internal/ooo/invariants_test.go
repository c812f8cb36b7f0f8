package ooo

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/trace"
	"helios/internal/uop"
)

// emptyPipeline builds a pipeline over an empty recording, ready to have
// its internal state corrupted by the white-box invariant tests.
func emptyPipeline() *Pipeline {
	return New(DefaultConfig(fusion.ModeNoFusion), &trace.Recording{})
}

// longRecording is a well-formed synthetic recording of dependent loads,
// each to its own line 1 MiB past the last, so every one misses to DRAM:
// tens of millions of cycles, so only a context or a fault ends a run
// over it early.
func longRecording(t testing.TB) *trace.Recording {
	t.Helper()
	recs := make([]emu.Retired, 100_000)
	for i := range recs {
		recs[i] = emu.Retired{
			Seq:     uint64(i),
			PC:      0x1000,
			NextPC:  0x1000,
			Inst:    isa.Inst{Op: isa.OpLD, Rd: 5, Rs1: 5},
			EA:      uint64(i) << 20,
			MemSize: 8,
		}
	}
	rec, err := trace.FromRecords("long", 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// TestCheckInvariantsCatchesCorruption plants each class of internal
// corruption directly in the pipeline state and checks that the sweep
// names the specific violated invariant.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(p *Pipeline)
		want    string
	}{
		{"rob-over-capacity", func(p *Pipeline) {
			p.rob.push(&pUop{seq: 1, st: stDispatched})
			p.cfg.ROBSize = 0
		}, "ROB occupancy"},
		{"reg-free-and-mapped", func(p *Pipeline) {
			p.freeList = append(p.freeList, p.rat[5])
		}, "is also on the free list"},
		{"free-list-duplicate", func(p *Pipeline) {
			p.freeList = append(p.freeList, p.freeList[0])
		}, "on the free list twice"},
		{"free-list-out-of-range", func(p *Pipeline) {
			p.freeList = append(p.freeList, int32(p.cfg.PhysRegs))
		}, "invalid register"},
		{"rat-out-of-range", func(p *Pipeline) {
			p.rat[3] = int32(p.cfg.PhysRegs)
		}, "out of range"},
		{"rob-out-of-order", func(p *Pipeline) {
			p.rob.push(&pUop{seq: 5, st: stDispatched})
			p.rob.push(&pUop{seq: 3, st: stDispatched})
		}, "ROB out of order"},
		{"rob-dead-uop", func(p *Pipeline) {
			p.rob.push(&pUop{seq: 1, st: stKilled})
		}, "dead µ-op"},
		{"dangling-fused-pair", func(p *Pipeline) {
			p.rob.push(&pUop{seq: 1, st: stDispatched, kind: uop.FuseLoadPair})
		}, "has no tail record"},
		{"bad-pend-srcs", func(p *Pipeline) {
			p.rob.push(&pUop{seq: 1, st: stDispatched, pendSrcs: 5, numSrc: 1})
		}, "pendSrcs"},
		{"iq-count-mismatch", func(p *Pipeline) {
			p.iqCount = 1 // no dispatched µ-op backs it
		}, "IQ count"},
		{"ready-missing", func(p *Pipeline) {
			// Dispatched with every source ready, but never listed: the
			// issue stage would never see it.
			p.rob.push(&pUop{seq: 1, st: stDispatched})
			p.iqCount = 1
		}, "ready list misses"},
		{"ready-out-of-order", func(p *Pipeline) {
			p.ready.add(&pUop{seq: 5, st: stDispatched})
			p.ready.refs = append(p.ready.refs, readyRef{u: &pUop{seq: 3, st: stDispatched}, seq: 3})
		}, "ready list out of order"},
		{"sq-out-of-order", func(p *Pipeline) {
			p.sq = append(p.sq, &pUop{seq: 5, st: stDispatched}, &pUop{seq: 3, st: stDispatched})
		}, "SQ out of order"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := emptyPipeline()
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("clean pipeline fails invariants: %v", err)
			}
			tc.corrupt(p)
			err := p.CheckInvariants()
			if err == nil {
				t.Fatal("corruption not detected")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestRunCheckedSurfacesInvariantViolation corrupts the free list and
// lets the periodic in-run sweep find it: the run must die with a
// FailInvariant SimError, not continue on broken state.
func TestRunCheckedSurfacesInvariantViolation(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeNoFusion), longRecording(t))
	p.freeList = append(p.freeList, p.freeList[0])
	_, err := p.RunChecked(1)
	var se *SimError
	if !errors.As(err, &se) || se.Kind != FailInvariant {
		t.Fatalf("err = %v, want a %s SimError", err, FailInvariant)
	}
	if se.Snapshot.Invariants == "ok" {
		t.Error("snapshot claims invariants hold at an invariant failure")
	}
}

// TestWatchdogFiresOnLivelock forces a flush every cycle via the chaos
// hook: the machine can never commit, and the watchdog must convert the
// livelock into a structured failure instead of spinning forever.
func TestWatchdogFiresOnLivelock(t *testing.T) {
	cfg := DefaultConfig(fusion.ModeNoFusion)
	cfg.ChaosFlushInterval = 1 // flush storm every cycle: no forward progress
	cfg.ChaosSeed = 7
	p := New(cfg, longRecording(t))
	_, err := p.Run()
	var se *SimError
	if !errors.As(err, &se) || se.Kind != FailWatchdog {
		t.Fatalf("err = %v, want a %s SimError", err, FailWatchdog)
	}
	if se.Snapshot.Cycle == 0 {
		t.Error("watchdog snapshot missing cycle count")
	}
}

// TestPanicRecoveredAsSimError breaks the pipeline so a stage panics and
// checks the contract: Run returns a FailPanic SimError with the panic
// value and stack attached — it never lets the panic escape.
func TestPanicRecoveredAsSimError(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeNoFusion), longRecording(t))
	p.waiters = nil // rename will index this and panic
	_, err := p.Run()
	var se *SimError
	if !errors.As(err, &se) || se.Kind != FailPanic {
		t.Fatalf("err = %v, want a %s SimError", err, FailPanic)
	}
	if se.PanicValue == "" || se.Stack == "" {
		t.Errorf("panic failure missing value/stack: %+v", se)
	}
}

// TestRunContextDeadline runs over a long recording with a deadline: the
// cycle loop must stop within one check interval and the error must
// unwrap to context.DeadlineExceeded.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	p := New(DefaultConfig(fusion.ModeNoFusion), longRecording(t))
	_, err := p.RunContext(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	var se *SimError
	if !errors.As(err, &se) || se.Kind != FailContext {
		t.Fatalf("err = %v, want a %s SimError", err, FailContext)
	}
}

// TestSimErrorJSON checks the crash dump is valid JSON carrying the
// machine state a bug report needs.
func TestSimErrorJSON(t *testing.T) {
	p := New(DefaultConfig(fusion.ModeHelios), longRecording(t))
	p.waiters = nil
	_, err := p.Run()
	var se *SimError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want a SimError", err)
	}
	var dump struct {
		Kind     string `json:"kind"`
		Snapshot struct {
			Mode string `json:"mode"`
			ROB  struct {
				Cap int `json:"cap"`
			} `json:"rob"`
			Invariants string `json:"invariants"`
		} `json:"snapshot"`
	}
	if jerr := json.Unmarshal(se.JSON(), &dump); jerr != nil {
		t.Fatalf("crash dump is not valid JSON: %v", jerr)
	}
	if dump.Kind != string(FailPanic) || dump.Snapshot.Mode == "" ||
		dump.Snapshot.ROB.Cap == 0 || dump.Snapshot.Invariants == "" {
		t.Errorf("crash dump missing fields: %s", se.JSON())
	}
}

// TestChaosFlushStormPreservesArchitecture is the in-package half of the
// chaos contract: with periodic forced flushes from random ROB entries,
// every fusion mode must still commit exactly the functional instruction
// count.
func TestChaosFlushStormPreservesArchitecture(t *testing.T) {
	prog := loopSum
	want := runMode(t, prog, fusion.ModeNoFusion, 0).CommittedInsts
	for _, mode := range fusion.Modes {
		for _, interval := range []uint64{257, 1021} {
			cfg := DefaultConfig(mode)
			cfg.ChaosFlushInterval = interval
			cfg.ChaosSeed = int64(interval) * 31
			p := New(cfg, recordingFor(t, prog, 0))
			st, err := p.RunChecked(128)
			if err != nil {
				t.Fatalf("%v/interval=%d: %v", mode, interval, err)
			}
			if st.CommittedInsts != want {
				t.Errorf("%v/interval=%d committed %d, want %d",
					mode, interval, st.CommittedInsts, want)
			}
			if st.ChaosFlushes == 0 {
				t.Errorf("%v/interval=%d: no chaos flushes injected", mode, interval)
			}
		}
	}
}
