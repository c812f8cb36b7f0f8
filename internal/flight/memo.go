// Package flight holds Memo, the one memoizing singleflight behind the
// suite's result and recording caches and heliosd's result cache: per
// key, the first caller runs the computation, concurrent callers wait
// for it, and later callers get the stored result.
package flight

import (
	"context"
	"errors"
	"sync"
)

// Outcome reports how Do served one call. It is a bit set, so each
// caller can keep its own counters:
//
//	Hit        a stored result, found without waiting
//	Wait|Hit   waited on another caller's run, then took its result
//	Wait       the caller's context ended while it waited
//	Run        ran fn itself
//	Wait|Run   waited on a run that ended with a context error, then ran fn
type Outcome uint8

const (
	Hit  Outcome = 1 << iota // returned a stored result
	Wait                     // waited on another caller's run
	Run                      // ran fn itself
)

// Memo memoizes one computation per key. Results are stored with their
// error, unless the error is a context failure: that belongs to the
// caller whose context ended, not to the key, so the next caller runs
// fn again. The zero value is ready to use.
type Memo[K comparable, V any] struct {
	mu    sync.Mutex
	vals  map[K]result[V]
	calls map[K]chan struct{} // closed when the key's run ends
}

type result[V any] struct {
	val V
	err error
}

// Do returns the result stored for key, waits for the run already in
// flight for it (or for ctx to end), or runs fn itself.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (V, Outcome, error) {
	return m.Redo(ctx, key, nil, fn)
}

// Redo is Do for a key whose stored value may have gone bad: a stored
// value for which stale reports true counts as missing, so one caller
// runs fn again and its result replaces it. The stale value stays
// stored until then, and Do keeps returning it. A nil stale is Do.
func (m *Memo[K, V]) Redo(ctx context.Context, key K, stale func(V) bool, fn func() (V, error)) (v V, how Outcome, err error) {
	m.mu.Lock()
	for {
		if r, ok := m.vals[key]; ok && (stale == nil || !stale(r.val)) {
			m.mu.Unlock()
			return r.val, how | Hit, r.err
		}
		done, inflight := m.calls[key]
		if !inflight {
			break
		}
		m.mu.Unlock()
		how |= Wait
		select {
		case <-done:
		case <-ctx.Done():
			return v, how, ctx.Err()
		}
		m.mu.Lock()
	}
	done := make(chan struct{})
	if m.calls == nil {
		m.calls = make(map[K]chan struct{})
	}
	m.calls[key] = done
	m.mu.Unlock()

	// The deferred release also runs if fn panics: nothing is stored and
	// the waiters wake to run fn themselves.
	returned := false
	defer func() {
		m.mu.Lock()
		if returned && !IsCtxErr(err) {
			if m.vals == nil {
				m.vals = make(map[K]result[V])
			}
			m.vals[key] = result[V]{v, err}
		}
		delete(m.calls, key)
		m.mu.Unlock()
		close(done)
	}()
	v, err = fn()
	returned = true
	return v, how | Run, err
}

// Add stores v for key unless the key already has a result or a run in
// flight, and reports whether it stored v.
func (m *Memo[K, V]) Add(key K, v V) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.vals[key]; ok {
		return false
	}
	if _, ok := m.calls[key]; ok {
		return false
	}
	if m.vals == nil {
		m.vals = make(map[K]result[V])
	}
	m.vals[key] = result[V]{val: v}
	return true
}

// Len reports how many keys have a stored result.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.vals)
}

// Keys returns the keys with a stored result, in no particular order.
func (m *Memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, 0, len(m.vals))
	for k := range m.vals {
		keys = append(keys, k)
	}
	return keys
}

// IsCtxErr reports whether err is a cancellation or deadline failure:
// caused by the caller, so never stored.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
