package ooo

import (
	"encoding/json"
	"fmt"
	"runtime/debug"
)

// FailKind classifies how a simulation run died. Every abnormal exit of
// the pipeline — a hung machine, a recovered stage panic, a broken
// invariant, a cancelled context — is reported as a *SimError carrying
// one of these kinds plus a pipeline Snapshot, so callers get a
// machine-readable crash dump instead of a bare string.
type FailKind string

const (
	// FailWatchdog: no instruction committed for watchdogInterval cycles.
	FailWatchdog FailKind = "watchdog"
	// FailPanic: a pipeline stage panicked; the panic was recovered.
	FailPanic FailKind = "panic"
	// FailInvariant: a periodic CheckInvariants sweep found the pipeline
	// in an inconsistent state.
	FailInvariant FailKind = "invariant"
	// FailContext: the run's context was cancelled or its deadline
	// passed.
	FailContext FailKind = "context"
)

// QueueSnap is the occupancy of one pipeline structure at failure time.
type QueueSnap struct {
	Len int `json:"len"`
	Cap int `json:"cap"`
}

// Snapshot is the pipeline state at the moment of failure, designed to be
// attached to bug reports: where the machine was, what the head of each
// structure looked like, what committed last, and whether the internal
// invariants still held.
type Snapshot struct {
	Cycle          uint64 `json:"cycle"`
	CommittedInsts uint64 `json:"committed_insts"`
	CommittedUops  uint64 `json:"committed_uops"`
	Mode           string `json:"mode"`

	ROB QueueSnap `json:"rob"`
	AQ  QueueSnap `json:"aq"`
	IQ  QueueSnap `json:"iq"`
	LQ  QueueSnap `json:"lq"`
	SQ  QueueSnap `json:"sq"`

	ROBHead string `json:"rob_head"`
	AQHead  string `json:"aq_head"`

	NextFetch    uint64 `json:"next_fetch"`
	StreamDone   bool   `json:"stream_done"`
	FetchStalled bool   `json:"fetch_stalled"`

	// RecentCommits holds the sequence numbers of the last instructions
	// to leave the ROB, oldest first.
	RecentCommits []uint64 `json:"recent_commits"`

	// Invariants is "ok" or the first violated invariant, from running
	// CheckInvariants at the point of failure.
	Invariants string `json:"invariants"`
}

// SimError is a structured simulation failure: a kind, a human-readable
// message, the underlying cause (if any) and a full pipeline snapshot.
// It serializes to JSON via JSON() for bug reports and crash dumps.
type SimError struct {
	Kind       FailKind `json:"kind"`
	Msg        string   `json:"msg"`
	Cause      string   `json:"cause,omitempty"`
	PanicValue string   `json:"panic_value,omitempty"`
	Stack      string   `json:"stack,omitempty"`
	Snapshot   Snapshot `json:"snapshot"`

	cause error
}

// Error implements error. The snapshot is summarized, not dumped; use
// JSON for the full state.
func (e *SimError) Error() string {
	s := fmt.Sprintf("ooo: %s: %s", e.Kind, e.Msg)
	if e.cause != nil {
		s += ": " + e.cause.Error()
	}
	return fmt.Sprintf("%s (cycle %d, committed %d, rob %d/%d, head %s)",
		s, e.Snapshot.Cycle, e.Snapshot.CommittedInsts,
		e.Snapshot.ROB.Len, e.Snapshot.ROB.Cap, e.Snapshot.ROBHead)
}

// Unwrap exposes the underlying cause, so errors.Is sees through a
// SimError to e.g. context.Canceled or an injected fault sentinel.
func (e *SimError) Unwrap() error { return e.cause }

// JSON renders the full crash dump, indented for direct inclusion in a
// bug report.
func (e *SimError) JSON() []byte {
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil { // all fields are plain data; cannot happen
		return []byte(fmt.Sprintf("{%q: %q}", "marshal_error", err.Error()))
	}
	return b
}

// failure builds a SimError of the given kind around the current pipeline
// state.
func (p *Pipeline) failure(kind FailKind, msg string, cause error) *SimError {
	e := &SimError{
		Kind:     kind,
		Msg:      msg,
		Snapshot: p.snapshot(),
		cause:    cause,
	}
	if cause != nil {
		e.Cause = cause.Error()
	}
	return e
}

// panicFailure converts a recovered stage panic into a SimError with the
// panic value and stack attached.
func (p *Pipeline) panicFailure(r any) *SimError {
	e := p.failure(FailPanic, "recovered pipeline stage panic", nil)
	e.PanicValue = fmt.Sprint(r)
	e.Stack = string(debug.Stack())
	return e
}

// snapshot captures the pipeline state for a crash dump. It must be safe
// to call on an arbitrarily corrupted pipeline (it runs inside panic
// recovery), so the invariant sweep is itself recovered.
func (p *Pipeline) snapshot() Snapshot {
	s := Snapshot{
		Cycle:          p.cycle,
		CommittedInsts: p.st.CommittedInsts,
		CommittedUops:  p.st.CommittedUops,
		Mode:           p.cfg.Mode.String(),
		ROB:            QueueSnap{p.rob.len(), p.cfg.ROBSize},
		AQ:             QueueSnap{p.aq.len(), p.cfg.AQSize},
		IQ:             QueueSnap{p.iqCount, p.cfg.IQSize},
		LQ:             QueueSnap{len(p.lq), p.cfg.LQSize},
		SQ:             QueueSnap{len(p.sq), p.cfg.SQSize},
		ROBHead:        describeUop(p.rob.front()),
		AQHead:         describeUop(p.aq.front()),
		NextFetch:      p.nextFetch,
		StreamDone:     p.fetchDone,
		FetchStalled:   p.fetchStalled,
		Invariants:     p.invariantVerdict(),
	}
	n := uint64(len(p.recentCommits))
	if p.recentCount < n {
		n = p.recentCount
	}
	for i := p.recentCount - n; i < p.recentCount; i++ {
		s.RecentCommits = append(s.RecentCommits,
			p.recentCommits[i%uint64(len(p.recentCommits))])
	}
	return s
}

// invariantVerdict runs CheckInvariants defensively: a pipeline broken
// enough to panic the checker still yields a verdict string.
func (p *Pipeline) invariantVerdict() (v string) {
	defer func() {
		if r := recover(); r != nil {
			v = fmt.Sprintf("invariant check panicked: %v", r)
		}
	}()
	if err := p.CheckInvariants(); err != nil {
		return err.Error()
	}
	return "ok"
}
