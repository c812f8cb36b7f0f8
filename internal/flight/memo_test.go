package flight

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// parkCtx is a live context that closes parked the first time a caller
// selects on its Done channel: the moment a waiter parks on a run.
type parkCtx struct {
	context.Context
	once   sync.Once
	parked chan struct{}
}

func newParkCtx() *parkCtx {
	return &parkCtx{Context: context.Background(), parked: make(chan struct{})}
}

func (c *parkCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.parked) })
	return c.Context.Done()
}

// TestConcurrentCallersShareOneRun: callers that arrive while a run is
// in flight wait for it and take its value; fn runs once.
func TestConcurrentCallersShareOneRun(t *testing.T) {
	var m Memo[string, int]
	var runs atomic.Int32
	started, release := make(chan struct{}), make(chan struct{})
	fn := func() (int, error) {
		runs.Add(1)
		close(started)
		<-release
		return 42, nil
	}

	const waiters = 8
	hows := make([]Outcome, waiters+1)
	vals := make([]int, waiters+1)
	var wg sync.WaitGroup
	call := func(ctx context.Context, i int) {
		defer wg.Done()
		v, how, err := m.Do(ctx, "k", fn)
		if err != nil {
			t.Errorf("call %d: %v", i, err)
		}
		vals[i], hows[i] = v, how
	}
	wg.Add(1)
	go call(context.Background(), 0)
	<-started
	for i := 1; i <= waiters; i++ {
		ctx := newParkCtx()
		wg.Add(1)
		go call(ctx, i)
		<-ctx.parked
	}
	close(release)
	wg.Wait()

	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	if hows[0] != Run {
		t.Errorf("leader outcome = %b, want Run", hows[0])
	}
	for i := 1; i <= waiters; i++ {
		if hows[i] != Wait|Hit {
			t.Errorf("caller %d outcome = %b, want Wait|Hit", i, hows[i])
		}
	}
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	if v, how, _ := m.Do(context.Background(), "k", fn); v != 42 || how != Hit {
		t.Errorf("later call = (%d, %b), want (42, Hit)", v, how)
	}
}

// TestContextErrorsNotStored: a run that fails with a context error
// stores nothing, so the next caller runs fn again; any other error is
// stored and served as a hit.
func TestContextErrorsNotStored(t *testing.T) {
	var m Memo[string, int]
	for _, ctxErr := range []error{context.Canceled, context.DeadlineExceeded} {
		wrapped := errors.Join(errors.New("sim aborted"), ctxErr)
		_, how, err := m.Do(context.Background(), "ctx", func() (int, error) { return 0, wrapped })
		if how != Run || !errors.Is(err, ctxErr) {
			t.Fatalf("(%b, %v), want (Run, %v)", how, err, ctxErr)
		}
	}
	v, how, err := m.Do(context.Background(), "ctx", func() (int, error) { return 7, nil })
	if v != 7 || how != Run || err != nil {
		t.Errorf("after context errors: (%d, %b, %v), want (7, Run, nil)", v, how, err)
	}

	boom := errors.New("boom")
	m.Do(context.Background(), "err", func() (int, error) { return 0, boom })
	_, how, err = m.Do(context.Background(), "err", func() (int, error) {
		t.Error("fn ran again for a stored error")
		return 0, nil
	})
	if how != Hit || err != boom {
		t.Errorf("stored error: (%b, %v), want (Hit, boom)", how, err)
	}
	if n := m.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

// TestWaiterContextDies: a waiter whose context ends returns promptly
// with its context's error, and its exit leaves the leader's run alone:
// the leader finishes, its value is stored, and a later call hits it.
func TestWaiterContextDies(t *testing.T) {
	var m Memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	leaderDone := make(chan struct{})
	var leaderV int
	var leaderErr error
	go func() {
		defer close(leaderDone)
		leaderV, _, leaderErr = m.Do(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			return 9, nil
		})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, how, err := m.Do(ctx, "k", func() (int, error) {
		t.Error("a waiter ran fn while the leader was in flight")
		return 0, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) || how != Wait {
		t.Fatalf("dead waiter: (%b, %v), want (Wait, DeadlineExceeded)", how, err)
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("dead waiter took %v to return", d)
	}

	select {
	case <-leaderDone:
		t.Fatal("the leader finished before it was released")
	default:
	}
	close(release)
	<-leaderDone
	if leaderV != 9 || leaderErr != nil {
		t.Fatalf("leader = (%d, %v), want (9, nil)", leaderV, leaderErr)
	}
	if v, how, _ := m.Do(context.Background(), "k", nil); v != 9 || how != Hit {
		t.Errorf("later call = (%d, %b), want (9, Hit)", v, how)
	}
}

// TestWaiterLeadsAfterLeaderContextDies: when the leader's run ends with
// a context error, a waiter with a live context runs fn itself.
func TestWaiterLeadsAfterLeaderContextDies(t *testing.T) {
	var m Memo[string, int]
	started, release := make(chan struct{}), make(chan struct{})
	go m.Do(context.Background(), "k", func() (int, error) {
		close(started)
		<-release
		return 0, context.Canceled
	})
	<-started
	ctx := newParkCtx()
	go func() {
		<-ctx.parked
		close(release)
	}()
	v, how, err := m.Do(ctx, "k", func() (int, error) { return 5, nil })
	if v != 5 || how != Wait|Run || err != nil {
		t.Errorf("waiter = (%d, %b, %v), want (5, Wait|Run, nil)", v, how, err)
	}
}

// TestAddStoresOnce: Add stores a value once and refuses a stored key,
// and Do serves the added value as a hit without running fn.
func TestAddStoresOnce(t *testing.T) {
	var m Memo[string, int]
	if !m.Add("k", 1) || m.Add("k", 2) {
		t.Fatal("Add must store once and refuse a stored key")
	}
	if v, how, _ := m.Do(context.Background(), "k", nil); v != 1 || how != Hit {
		t.Fatalf("Do = (%d, %b), want the added (1, Hit)", v, how)
	}
	if keys := m.Keys(); len(keys) != 1 || keys[0] != "k" {
		t.Errorf("Keys = %v, want [k]", keys)
	}
}

// TestPanicReleasesWaiters: a run that panics stores nothing and frees
// the key, so the next caller runs fn instead of waiting forever.
func TestPanicReleasesWaiters(t *testing.T) {
	var m Memo[string, int]
	func() {
		defer func() { _ = recover() }()
		m.Do(context.Background(), "k", func() (int, error) { panic("engine fault") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if v, how, err := m.Do(ctx, "k", func() (int, error) { return 4, nil }); v != 4 || how != Run || err != nil {
		t.Errorf("after a panic: (%d, %b, %v), want (4, Run, nil)", v, how, err)
	}
}

// TestUncontendedRunNoAllocs: the wait channel is made only by a caller
// that waits, so a run nobody waits on allocates nothing in Memo (a
// context-failed run is never stored, so every call here runs fn).
func TestUncontendedRunNoAllocs(t *testing.T) {
	var m Memo[int, int]
	fn := func() (int, error) { return 0, context.Canceled }
	m.Do(context.Background(), 1, fn)
	if a := testing.AllocsPerRun(100, func() { m.Do(context.Background(), 1, fn) }); a != 0 {
		t.Errorf("uncontended run allocated %.1f times, want 0", a)
	}
	if n := m.Len(); n != 0 {
		t.Errorf("Len = %d after context-failed runs, want 0", n)
	}
}
