// Package flight holds Memo, the one memoizing singleflight behind the
// suite's result and recording caches: per key, the first caller runs
// the computation, concurrent callers wait for it, and later callers
// get the stored result.
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
//
// Each key is one map entry holding both its stored result and its
// in-flight run, so a miss inserts the key once: keys larger than 128
// bytes (the suite's machine configurations) cost one allocation each
// time they are inserted.
type Memo[K comparable, V any] struct {
	mu      sync.Mutex
	entries map[K]entry[V] // keys with a stored result or a run in flight
	stored  int            // entries with a stored result
}

type entry[V any] struct {
	val      V
	err      error
	stored   bool
	inflight bool
	// done is closed when the in-flight run ends. It is made by the
	// first caller that waits, so an uncontended run allocates none.
	done chan struct{}
}

// Do returns the result stored for key, waits for the run already in
// flight for it (or for ctx to end), or runs fn itself.
func (m *Memo[K, V]) Do(ctx context.Context, key K, fn func() (V, error)) (v V, how Outcome, err error) {
	m.mu.Lock()
	var e entry[V]
	for {
		e = m.entries[key]
		if e.stored {
			m.mu.Unlock()
			return e.val, how | Hit, e.err
		}
		if !e.inflight {
			break
		}
		if e.done == nil {
			e.done = make(chan struct{})
			m.entries[key] = e
		}
		m.mu.Unlock()
		how |= Wait
		select {
		case <-e.done:
		case <-ctx.Done():
			return v, how, ctx.Err()
		}
		m.mu.Lock()
	}
	if m.entries == nil {
		m.entries = make(map[K]entry[V])
	}
	e.inflight = true
	m.entries[key] = e
	m.mu.Unlock()

	// The deferred release also runs if fn panics: nothing is stored and
	// the waiters wake to run fn themselves.
	returned := false
	defer func() {
		m.mu.Lock()
		e := m.entries[key]
		done := e.done
		e.inflight, e.done = false, nil
		if returned && !IsCtxErr(err) {
			if !e.stored {
				m.stored++
			}
			e.val, e.err, e.stored = v, err, true
		}
		if e.stored {
			m.entries[key] = e
		} else {
			delete(m.entries, key)
		}
		m.mu.Unlock()
		if done != nil {
			close(done)
		}
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
	if _, ok := m.entries[key]; ok {
		return false
	}
	if m.entries == nil {
		m.entries = make(map[K]entry[V])
	}
	m.entries[key] = entry[V]{val: v, stored: true}
	m.stored++
	return true
}

// Len reports how many keys have a stored result.
func (m *Memo[K, V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stored
}

// Keys returns the keys with a stored result, in no particular order.
func (m *Memo[K, V]) Keys() []K {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]K, 0, m.stored)
	for k, e := range m.entries {
		if e.stored {
			keys = append(keys, k)
		}
	}
	return keys
}

// IsCtxErr reports whether err is a cancellation or deadline failure:
// caused by the caller, so never stored.
func IsCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
