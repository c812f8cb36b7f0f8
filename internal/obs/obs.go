// Package obs is the pipeline observability layer: per-µop event
// tracing in NDJSON and gem5 O3PipeView form (loadable in the Konata
// visualizer), plus a cycle-bucketed interval metrics sampler. It turns
// the end-of-run aggregate counters of ooo.Stats into time-resolved,
// per-event data so fusion coverage collapses, flush storms and port
// stalls can be localized within a run.
//
// The layer is always available and off by default. The pipeline holds
// a single *Observer pointer that is nil when observability is
// disabled; every hook site is a plain nil check on a concrete type —
// no interface dispatch, no allocation — so the disabled cost is a
// predicted-not-taken branch (pinned by BenchmarkPipelineObsOff).
//
// All output is a deterministic function of the simulated stream and
// configuration: events are emitted in commit/squash order, interval
// rows at fixed cycle boundaries, and nothing reads wall clocks. Two
// replays of the same recording produce byte-identical traces, which
// heliosvet's determinism rules and the obs determinism test enforce.
package obs

import (
	"encoding/json"
	"io"
	"math/bits"
	"strconv"
)

// Event is the full pipeline lifecycle of one µ-op, emitted when it
// retires or is squashed. Stage fields hold the cycle the µ-op reached
// the stage, 0 when it never did (the run's cycle counter starts at 1,
// so 0 is unambiguous). A fused µ-op carries the metadata of its pair:
// the kind, the tail nucleus's identity, the address-category verdict
// and whether the Helios predictor proposed the pairing.
type Event struct {
	Seq    uint64 `json:"seq"`
	PC     uint64 `json:"pc"`
	Disasm string `json:"disasm"`

	Fetch    uint64 `json:"fetch"`
	Decode   uint64 `json:"decode"`
	Rename   uint64 `json:"rename"`
	Dispatch uint64 `json:"dispatch"`
	Issue    uint64 `json:"issue"`
	Complete uint64 `json:"complete"`
	Retire   uint64 `json:"retire"` // 0 when squashed

	Squashed    bool   `json:"squashed,omitempty"`
	SquashCycle uint64 `json:"squash_cycle,omitempty"`

	Mispredicted bool `json:"mispredicted,omitempty"` // branch mispredict

	// Fusion metadata (zero values when the µ-op is not fused).
	Fused        string `json:"fused,omitempty"` // idiom | ldp | stp
	TailSeq      uint64 `json:"tail_seq,omitempty"`
	TailPC       uint64 `json:"tail_pc,omitempty"`
	PairDistance int    `json:"pair_distance,omitempty"`
	PairCategory string `json:"pair_category,omitempty"`
	Predicted    bool   `json:"predicted,omitempty"` // pairing came from the Helios FP
	Unfused      bool   `json:"unfused,omitempty"`   // fusion was undone before retire
}

// Observer is a per-run observability sink. Attach one via
// ooo.Config.Obs; any nil writer disables that output. Observer is not
// safe for concurrent use — one pipeline, one observer, as with the
// rest of the per-run simulation state.
type Observer struct {
	// PipeView receives the gem5 O3PipeView-compatible trace (one
	// multi-line record per retired or squashed µ-op), which Konata
	// renders directly.
	PipeView io.Writer

	// Events receives one JSON object per µ-op event, newline-delimited.
	Events io.Writer

	// Metrics receives the interval time series as CSV (header first).
	Metrics io.Writer

	// SampleEvery is the interval sampler period in cycles (0 disables
	// sampling even when Metrics is set).
	SampleEvery uint64

	sn          uint64 // monotone O3PipeView record id
	wroteHeader bool
	prev        IntervalStats
	buf         []byte // encode buffer every record reuses; sinks must not retain it
	err         error  // first write error; output stops once set
}

// Err returns the first write error the observer encountered, if any.
// Hook sites cannot return errors (they sit in the cycle loop), so
// failures latch here and the driver surfaces them after the run.
func (o *Observer) Err() error { return o.err }

// Traces reports whether a per-µ-op stream (PipeView or Events) is
// attached. The pipeline builds Retire/Squash events only when it is.
func (o *Observer) Traces() bool { return o.PipeView != nil || o.Events != nil }

// Retire records a µ-op leaving the ROB. ev.Retire must be set to the
// commit cycle.
func (o *Observer) Retire(ev *Event) { o.record(ev) }

// Squash records a µ-op killed by a flush. ev.Squashed/SquashCycle must
// be set; ev.Retire stays 0, which is how O3PipeView marks squashes.
func (o *Observer) Squash(ev *Event) { o.record(ev) }

func (o *Observer) record(ev *Event) {
	if o.PipeView != nil {
		o.sn++
		o.write(o.PipeView, appendPipeView(o.buf[:0], ev, o.sn))
	}
	if o.Events != nil {
		o.write(o.Events, appendEvent(o.buf[:0], ev))
	}
}

// write hands one encoded record to w unless an earlier write failed,
// keeping b as the encode buffer for the next record.
func (o *Observer) write(w io.Writer, b []byte) {
	o.buf = b
	if o.err != nil {
		return
	}
	if _, err := w.Write(b); err != nil {
		o.err = err
	}
}

// appendPipeView appends one gem5 O3PipeView record with the given
// record id. Stage ticks are raw cycle numbers (Konata only needs a
// consistent unit); unreached stages and squashed retires are 0,
// exactly as gem5 emits them. The PC is lower-case hex zero-padded to
// at least 8 digits, and the disassembly is written raw.
func appendPipeView(b []byte, ev *Event, sn uint64) []byte {
	b = appendUint(b, "O3PipeView:fetch:", ev.Fetch)
	b = append(b, ":0x"...)
	for n := (bits.Len64(ev.PC) + 3) / 4; n < 8; n++ {
		b = append(b, '0')
	}
	if ev.PC != 0 {
		b = strconv.AppendUint(b, ev.PC, 16)
	}
	b = appendUint(b, ":0:", sn)
	b = append(b, ':')
	b = append(b, ev.Disasm...)
	b = appendUint(b, "\nO3PipeView:decode:", ev.Decode)
	b = appendUint(b, "\nO3PipeView:rename:", ev.Rename)
	b = appendUint(b, "\nO3PipeView:dispatch:", ev.Dispatch)
	b = appendUint(b, "\nO3PipeView:issue:", ev.Issue)
	b = appendUint(b, "\nO3PipeView:complete:", ev.Complete)
	b = appendUint(b, "\nO3PipeView:retire:", ev.Retire)
	return append(b, ":store:0\n"...)
}

// appendEvent appends ev as one NDJSON line, byte-identical to
// json.Marshal(ev) plus a newline: fields in Event order, omitempty
// fields dropped at their zero value. FuzzObsEncoding holds it to that
// oracle.
func appendEvent(b []byte, ev *Event) []byte {
	b = appendUint(b, `{"seq":`, ev.Seq)
	b = appendUint(b, `,"pc":`, ev.PC)
	b = appendJSONString(append(b, `,"disasm":`...), ev.Disasm)
	b = appendUint(b, `,"fetch":`, ev.Fetch)
	b = appendUint(b, `,"decode":`, ev.Decode)
	b = appendUint(b, `,"rename":`, ev.Rename)
	b = appendUint(b, `,"dispatch":`, ev.Dispatch)
	b = appendUint(b, `,"issue":`, ev.Issue)
	b = appendUint(b, `,"complete":`, ev.Complete)
	b = appendUint(b, `,"retire":`, ev.Retire)
	if ev.Squashed {
		b = append(b, `,"squashed":true`...)
	}
	if ev.SquashCycle != 0 {
		b = appendUint(b, `,"squash_cycle":`, ev.SquashCycle)
	}
	if ev.Mispredicted {
		b = append(b, `,"mispredicted":true`...)
	}
	if ev.Fused != "" {
		b = appendJSONString(append(b, `,"fused":`...), ev.Fused)
	}
	if ev.TailSeq != 0 {
		b = appendUint(b, `,"tail_seq":`, ev.TailSeq)
	}
	if ev.TailPC != 0 {
		b = appendUint(b, `,"tail_pc":`, ev.TailPC)
	}
	if ev.PairDistance != 0 {
		b = strconv.AppendInt(append(b, `,"pair_distance":`...), int64(ev.PairDistance), 10)
	}
	if ev.PairCategory != "" {
		b = appendJSONString(append(b, `,"pair_category":`...), ev.PairCategory)
	}
	if ev.Predicted {
		b = append(b, `,"predicted":true`...)
	}
	if ev.Unfused {
		b = append(b, `,"unfused":true`...)
	}
	return append(b, "}\n"...)
}

// appendUint appends prefix followed by v in decimal.
func appendUint(b []byte, prefix string, v uint64) []byte {
	return strconv.AppendUint(append(b, prefix...), v, 10)
}

// appendJSONString appends s quoted exactly as encoding/json quotes it.
// A string of printable ASCII other than the bytes encoding/json
// escapes (", \ and the HTML-unsafe <, >, &) is copied between quotes;
// that covers every disassembly and fusion label the pipeline emits.
// Anything else (control bytes, non-ASCII such as U+2028, invalid
// UTF-8) is quoted by json.Marshal itself, so the escaping cannot
// drift from the standard library's.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
