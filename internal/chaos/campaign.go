package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"

	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/trace"
)

// Report aggregates the outcome of a fault-injection campaign. The
// contract under test: Runs == Clean + TypedErrors and Violations is
// empty — every injection ended in a clean, correctly-accounted result
// or a typed error; nothing panicked, hung, or silently produced a wrong
// answer.
type Report struct {
	Runs        int
	Clean       int // runs that ended without error, with correct accounting
	TypedErrors int // runs that ended in the typed error their fault calls for
	Violations  []string
}

// Merge folds another report into r.
func (r *Report) Merge(o Report) {
	r.Runs += o.Runs
	r.Clean += o.Clean
	r.TypedErrors += o.TypedErrors
	r.Violations = append(r.Violations, o.Violations...)
}

func (r *Report) violation(format string, args ...any) {
	r.Violations = append(r.Violations, fmt.Sprintf(format, args...))
}

// String summarizes the report for logs.
func (r *Report) String() string {
	return fmt.Sprintf("chaos: %d runs, %d clean, %d typed errors, %d violations",
		r.Runs, r.Clean, r.TypedErrors, len(r.Violations))
}

// checkInterval is how often campaign pipeline runs sweep invariants.
const checkInterval = 256

// StreamCampaign records the recording's stream `runs` times, each
// through a fresh random stream fault, replays what was recorded under a
// fusion mode cycled from the paper's six, and classifies every outcome
// against the failure contract:
//
//   - a corrupt or reordered record must be refused by trace.Record
//     with an error wrapping trace.ErrCorrupt (the recording boundary,
//     not the pipeline, must catch it);
//   - an injected stream error (FaultError, FaultTruncate) must be
//     refused by trace.Record with ErrInjected visible through errors.Is;
//   - a recording that was made must replay to a clean exit committing
//     exactly the records delivered, or to a *ooo.SimError of any kind
//     except panic.
func StreamCampaign(rec *trace.Recording, runs int, seed int64) Report {
	rng := rand.New(rand.NewSource(seed))
	var rep Report
	for i := 0; i < runs; i++ {
		f := RandomStreamFault(rng, uint64(rec.Len()))
		mode := fusion.Modes[i%len(fusion.Modes)]
		inj := Inject(rec, f)
		got, rerr := trace.Record(inj)
		rep.Runs++

		var want error // the sentinel Record must refuse the stream with
		switch {
		case f.Kind == FaultError || f.Kind == FaultTruncate:
			want = ErrInjected
		case inj.Fired():
			want = trace.ErrCorrupt
		}
		if rerr != nil || want != nil {
			if !errors.Is(rerr, want) {
				rep.violation("%v at %d: Record returned %v, want an error wrapping %v", f.Kind, f.At, rerr, want)
				continue
			}
			rep.TypedErrors++
			continue
		}

		st, err := ooo.New(ooo.DefaultConfig(mode), got).RunChecked(checkInterval)
		var se *ooo.SimError
		switch {
		case err == nil:
			if st.CommittedInsts != inj.Delivered() {
				rep.violation("%v/%v at %d: clean exit but committed %d of %d delivered records",
					f.Kind, mode, f.At, st.CommittedInsts, inj.Delivered())
				continue
			}
			rep.Clean++
		case errors.As(err, &se):
			if se.Kind == ooo.FailPanic {
				rep.violation("%v/%v at %d: fault reached panic recovery: %v", f.Kind, mode, f.At, err)
				continue
			}
			rep.TypedErrors++
		default:
			rep.violation("%v/%v at %d: untyped error: %v", f.Kind, mode, f.At, err)
		}
	}
	return rep
}

// FileCampaign attacks the recording's serialized trace file: the
// payload truncated at every frame boundary (all must be rejected with
// an error, never a panic or a short parse), and `flips` single-bit
// flips of the compressed bytes (each must either fail to parse or
// parse to a recording bit-identical to the original — the gzip CRC
// guarantees there is no third outcome).
func FileCampaign(rec *trace.Recording, flips int, seed int64) Report {
	var rep Report
	truncs, err := FrameTruncations(rec)
	if err != nil {
		rep.violation("building truncations: %v", err)
		return rep
	}
	for i, file := range truncs {
		rep.Runs++
		got, rerr := trace.ReadFrom(bytes.NewReader(file))
		if i == len(truncs)-1 {
			// Final entry is the untruncated payload: must round-trip.
			if rerr != nil || !RecordingsEqual(got, rec) {
				rep.violation("full payload failed to round-trip: %v", rerr)
				continue
			}
			rep.Clean++
			continue
		}
		if rerr == nil {
			rep.violation("truncation %d accepted as a %d-record recording", i, got.Len())
			continue
		}
		rep.TypedErrors++
	}

	file, err := Serialize(rec)
	if err != nil {
		rep.violation("serializing: %v", err)
		return rep
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < flips; i++ {
		rep.Runs++
		flipped := FlipBit(file, rng.Intn(len(file)), uint(rng.Intn(8)))
		got, rerr := trace.ReadFrom(bytes.NewReader(flipped))
		switch {
		case rerr != nil:
			rep.TypedErrors++
		case RecordingsEqual(got, rec):
			// The flip hit a byte outside the integrity envelope (gzip
			// MTIME/OS header fields): parsing unchanged data is fine.
			rep.Clean++
		default:
			rep.violation("bit flip %d parsed to a different recording", i)
		}
	}
	return rep
}

// PipelineCampaign runs the recording through `storms` flush-storm
// configurations (the default machine with a forced flush from a random
// live µ-op every 256–2048 cycles) and `randomCfgs` randomized machine
// configurations, across the fusion modes. Every run must finish clean
// and commit exactly the recording's architectural instruction count —
// chaos in the microarchitecture must never leak into architecture.
func PipelineCampaign(rec *trace.Recording, storms, randomCfgs int, seed int64) Report {
	rng := rand.New(rand.NewSource(seed))
	want := uint64(rec.Len())
	var rep Report

	runOne := func(label string, cfg ooo.Config) {
		rep.Runs++
		p := ooo.New(cfg, rec)
		st, err := p.RunChecked(checkInterval)
		if err != nil {
			var se *ooo.SimError
			if errors.As(err, &se) {
				rep.violation("%s: run died: %v", label, err)
			} else {
				rep.violation("%s: untyped error: %v", label, err)
			}
			return
		}
		if st.CommittedInsts != want {
			rep.violation("%s: committed %d instructions, want %d", label, st.CommittedInsts, want)
			return
		}
		rep.Clean++
	}

	for i := 0; i < storms; i++ {
		mode := fusion.Modes[i%len(fusion.Modes)]
		cfg := ooo.DefaultConfig(mode)
		cfg.ChaosFlushInterval = 256 + uint64(rng.Intn(1793))
		cfg.ChaosSeed = rng.Int63()
		runOne(fmt.Sprintf("storm/%v/interval=%d", mode, cfg.ChaosFlushInterval), cfg)
	}
	for i := 0; i < randomCfgs; i++ {
		mode := fusion.Modes[i%len(fusion.Modes)]
		cfg := RandomConfig(rng, mode)
		runOne(fmt.Sprintf("random-config/%v/#%d", mode, i), cfg)
	}
	return rep
}
