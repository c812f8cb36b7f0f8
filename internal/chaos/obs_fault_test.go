package chaos

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
)

// observedStats replays the chaos recording with an interval sampler
// attached to the given sink and returns the final stats.
func observedStats(t *testing.T, sink *bytes.Buffer, every uint64) *ooo.Stats {
	t.Helper()
	rec := buildRecording(t)
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.Obs = &obs.Observer{Metrics: sink, SampleEvery: every}
	p := ooo.New(cfg, rec)
	st, err := p.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return st
}

// TestIntervalSamplerPartialFinalInterval pins the end-of-run flush:
// when the run length is not a multiple of the sampling period, the
// tail interval must still appear as a final row stamped with the last
// simulated cycle — otherwise the series silently under-reports the
// run.
func TestIntervalSamplerPartialFinalInterval(t *testing.T) {
	var buf bytes.Buffer
	every := uint64(512)
	st := observedStats(t, &buf, every)
	if st.Cycles%every == 0 {
		// Astronomically unlikely drift (the recording is fixed); keep
		// the partial-tail premise explicit rather than vacuous.
		every = 511
		buf.Reset()
		st = observedStats(t, &buf, every)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("no interval rows emitted:\n%s", buf.String())
	}
	rows := lines[1:] // drop the header
	wantRows := int(st.Cycles / every)
	if st.Cycles%every != 0 {
		wantRows++
	}
	if len(rows) != wantRows {
		t.Errorf("%d interval rows for %d cycles at period %d, want %d",
			len(rows), st.Cycles, every, wantRows)
	}
	last := strings.Split(rows[len(rows)-1], ",")
	if cyc, err := strconv.ParseUint(last[0], 10, 64); err != nil || cyc != st.Cycles {
		t.Errorf("final row cycle = %q, want %d (partial tail interval lost)", last[0], st.Cycles)
	}
}

// TestObserverWriteFaultLatchSticky drives the sampler into an injected
// write failure and proves the error latch: Err() returns the fault,
// and no further write attempts reach the sink once it is latched.
func TestObserverWriteFaultLatchSticky(t *testing.T) {
	fw := &FaultyWriter{Limit: 0} // even the header write fails
	ob := &obs.Observer{Metrics: fw, SampleEvery: 1}
	ob.Sample(obs.IntervalStats{Cycle: 1})
	if err := ob.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err() = %v, want the injected fault", err)
	}
	attempts := fw.Writes
	if attempts == 0 {
		t.Fatal("fault never reached the writer")
	}
	first := ob.Err()
	ob.Sample(obs.IntervalStats{Cycle: 2})
	ob.Sample(obs.IntervalStats{Cycle: 3})
	if fw.Writes != attempts {
		t.Errorf("latched observer still attempted %d more writes", fw.Writes-attempts)
	}
	if err := ob.Err(); !errors.Is(err, errors.Unwrap(first)) && err != first {
		t.Errorf("latched error changed from %v to %v", first, err)
	}
}

// TestObserverWriteFaultSurfacesAsRunError is the end-to-end contract
// of satellite observability sinks: a write fault injected into the
// interval CSV must turn the whole observed replay into an error at the
// core layer — never a clean result over a silently truncated series.
func TestObserverWriteFaultSurfacesAsRunError(t *testing.T) {
	suite := core.NewSuite(2000)
	fw := &FaultyWriter{Limit: 64} // the header alone exceeds this
	ob := &obs.Observer{Metrics: fw, SampleEvery: 16}
	//helios:ctx-ok test drives the public replay path directly
	_, err := suite.ObserveReplay(context.Background(), "crc32", fusion.ModeHelios, ob)
	if err == nil {
		t.Fatal("observed replay with a failing metrics sink returned no error")
	}
	if !errors.Is(err, ErrInjected) {
		t.Errorf("error %v does not wrap the injected fault", err)
	}
	if !strings.Contains(err.Error(), "observer") {
		t.Errorf("error %v does not attribute the failure to the observer", err)
	}
	if fmt.Sprint(ob.Err()) == "<nil>" {
		t.Error("observer latch empty after surfaced failure")
	}
}
