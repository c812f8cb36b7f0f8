package core

import (
	"context"
	"errors"
	"sync"
	"testing"

	"helios/internal/trace"
)

// abortingCtx is a recording leader's context that dies mid-emulation:
// its second Err poll (one stride of records in) announces itself on
// polled, blocks until release closes, and from then on the context
// reports Canceled.
type abortingCtx struct {
	context.Context
	polled, release chan struct{}

	mu    sync.Mutex
	polls int
}

func (c *abortingCtx) Err() error {
	c.mu.Lock()
	c.polls++
	n := c.polls
	c.mu.Unlock()
	switch {
	case n < 2:
		return nil
	case n == 2:
		close(c.polled)
		<-c.release
	}
	return context.Canceled
}

// waitingCtx is a live context that reports, by closing waiting, the
// first time a caller selects on its Done channel — the moment a waiter
// parks on another caller's run.
type waitingCtx struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *waitingCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestRecordingLeaderDeadline pins the record-phase guarantee heliosd
// relies on now that every miss records under its own request context:
// when the leader of a recording loses its context mid-emulation, a
// concurrent waiter whose context is live still gets the recording (it
// leads a fresh attempt), the aborted attempt is never cached, and the
// next call is a trace hit on the waiter's recording.
func TestRecordingLeaderDeadline(t *testing.T) {
	const budget = 20_000
	s := NewSuite(budget)
	leader := &abortingCtx{Context: context.Background(),
		polled: make(chan struct{}), release: make(chan struct{})}
	waiter := &waitingCtx{Context: context.Background(), waiting: make(chan struct{})}

	leaderErr := make(chan error, 1)
	go func() {
		_, err := s.RecordingBudget(leader, "crc32", budget)
		leaderErr <- err
	}()
	<-leader.polled // the leader is mid-emulation

	type got struct {
		rec *trace.Recording
		err error
	}
	waiterGot := make(chan got, 1)
	go func() {
		rec, err := s.RecordingBudget(waiter, "crc32", budget)
		waiterGot <- got{rec, err}
	}()
	<-waiter.waiting // the waiter is parked on the leader's run
	close(leader.release)

	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("leader err = %v, want context.Canceled", err)
	}
	w := <-waiterGot
	if w.err != nil {
		t.Fatalf("waiter with a live context failed: %v", w.err)
	}
	if w.rec.Len() == 0 {
		t.Fatal("waiter got an empty recording")
	}
	if m := s.Metrics(); m.TraceMisses != 2 || m.TraceHits != 0 {
		t.Errorf("after the abort: misses=%d hits=%d, want 2/0 (the aborted attempt and the waiter's own)",
			m.TraceMisses, m.TraceHits)
	}

	rec, err := s.RecordingBudget(context.Background(), "crc32", budget)
	if err != nil {
		t.Fatal(err)
	}
	if rec != w.rec {
		t.Error("a later call did not get the waiter's recording")
	}
	if m := s.Metrics(); m.TraceMisses != 2 || m.TraceHits != 1 {
		t.Errorf("later call: misses=%d hits=%d, want 2/1 (a trace hit)", m.TraceMisses, m.TraceHits)
	}
}
