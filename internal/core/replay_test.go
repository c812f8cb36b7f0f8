package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"helios/internal/emu"
	"helios/internal/flight"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/ooo"
	"helios/internal/trace"
)

// TestReplayFailureSurfaces: a replay that fails on a valid recording
// would fail the same way on a fresh recording of the same stream, so
// its error reaches the caller as is and is stored like any
// deterministic result, with no re-emulation behind it.
func TestReplayFailureSurfaces(t *testing.T) {
	s := NewSuite(2_000)
	cfg := ooo.DefaultConfig(fusion.ModeNoFusion)
	cfg.ChaosFlushInterval = 1 // a flush every cycle: nothing ever commits
	cfg.ChaosSeed = 7
	for i, want := range []flight.Outcome{flight.Run, flight.Hit} {
		_, how, err := s.Result(context.Background(), "crc32", cfg, 0)
		var se *ooo.SimError
		if !errors.As(err, &se) || se.Kind != ooo.FailWatchdog {
			t.Fatalf("call %d: err = %v, want a %s SimError", i, err, ooo.FailWatchdog)
		}
		if how != want {
			t.Errorf("call %d: outcome %v, want %v", i, how, want)
		}
	}
	if m := s.Metrics(); m.TraceMisses != 1 || m.PipelineRuns != 1 {
		t.Errorf("TraceMisses = %d, PipelineRuns = %d, want 1 and 1", m.TraceMisses, m.PipelineRuns)
	}
}

// TestGetExpiredDeadline checks that a dead context aborts Get with the
// context's error and that the failure is not cached — a later call with
// a live context must succeed.
func TestGetExpiredDeadline(t *testing.T) {
	s := NewSuite(10_000)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()

	_, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	if r, err := s.Get(context.Background(), "crc32", fusion.ModeNoFusion); err != nil || r == nil {
		t.Fatalf("deadline failure was cached: retry got (%v, %v)", r, err)
	}
}

// TestReplayCancelledMidRun replays a long synthetic recording and
// cancels while it is running: the cycle loop must notice and return an
// error unwrapping to context.Canceled.
func TestReplayCancelledMidRun(t *testing.T) {
	// Dependent loads, each to its own line 1 MiB past the last: every
	// one misses to DRAM, so the replay runs for tens of millions of
	// cycles.
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

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()

	_, err = Replay(ctx, rec, ooo.DefaultConfig(fusion.ModeNoFusion), 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var se *ooo.SimError
	if !errors.As(err, &se) || se.Kind != ooo.FailContext {
		t.Fatalf("err = %v, want a %s SimError", err, ooo.FailContext)
	}
	if se.Snapshot.ROB.Cap == 0 {
		t.Error("context failure has no pipeline snapshot")
	}
}
