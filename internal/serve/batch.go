package serve

import (
	"context"
	"sync"
	"time"

	"helios/internal/core"
	"helios/internal/ooo"
	"helios/internal/telemetry"
)

// batcher coalesces distinct cache-miss requests that share a
// (workload, budget) pair into one record phase. The shape follows
// kserve's batcher: requests fan in to a pending batch, the batch is
// cut when it reaches maxSize or when maxWait elapses since its first
// request, and results fan back out to each request's own channel. The
// record phase runs once per batch under the server's root context — a
// shared recording deliberately outlives any single client's deadline —
// and every request then replays the warm recording under its own
// context, so one slow batch member cannot hold the others' deadlines
// hostage.
type batcher struct {
	suite   *core.Suite
	baseCtx context.Context
	maxSize int
	maxWait time.Duration

	mu     sync.Mutex
	groups map[groupKey]*batchGroup

	batches  uint64 // batches executed
	requests uint64 // requests that went through a batch
	maxBatch uint64 // largest batch cut so far
}

type groupKey struct {
	workload string
	budget   uint64
}

// batchItem is one request waiting in a pending batch.
type batchItem struct {
	ctx    context.Context
	cfg    ooo.Config
	custom bool           // custom machine: bypass the suite's default-config cache
	done   chan batchDone // buffered; the executor never blocks on it

	// mu orders the executor's spans on the request's trace against
	// submit giving up, so every executor span nests inside the
	// request's batch_wait. abandon ends an open record span itself (the
	// record phase runs under the server context and opens nothing on
	// this trace) and waits for an open replay, which fails fast on the
	// dead context and may hold core spans such as degrade. Once
	// abandoned, the executor skips the item's replay.
	mu        sync.Mutex
	abandoned bool
	record    *telemetry.Span // open record span
	replaying bool            // replay span open: the executor will send on done
}

// beginRecord opens the item's record span unless the request gave up.
func (it *batchItem) beginRecord(size int) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if !it.abandoned {
		it.record = telemetry.FromContext(it.ctx).Start("record")
		it.record.SetInt("batch_size", int64(size))
	}
}

// endRecord closes the record span, unless abandon already closed it.
func (it *batchItem) endRecord(failed bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	it.record.SetBool("err", failed)
	it.record.End()
	it.record = nil
}

// beginReplay opens the item's replay span and reports true, or reports
// false if the request already gave up and the replay should be skipped.
func (it *batchItem) beginReplay() (*telemetry.Span, bool) {
	it.mu.Lock()
	defer it.mu.Unlock()
	if it.abandoned {
		return nil, false
	}
	it.replaying = true
	sp := telemetry.FromContext(it.ctx).Start("replay")
	sp.SetBool("custom", it.custom)
	return sp, true
}

// abandon is submit's side of a dead request context. It returns once no
// executor span is open on the request's trace.
func (it *batchItem) abandon() {
	it.mu.Lock()
	it.abandoned = true
	it.record.SetAttr("abandoned", "true")
	it.record.End()
	it.record = nil
	replaying := it.replaying
	it.mu.Unlock()
	if replaying {
		<-it.done // sent right after the replay span ends
	}
}

type batchDone struct {
	res  *core.Result
	err  error
	size int
}

type batchGroup struct {
	items []*batchItem
	timer *time.Timer
}

func newBatcher(ctx context.Context, suite *core.Suite, maxSize int, maxWait time.Duration) *batcher {
	if maxSize < 1 {
		maxSize = 1
	}
	return &batcher{
		suite:   suite,
		baseCtx: ctx,
		maxSize: maxSize,
		maxWait: maxWait,
		groups:  make(map[groupKey]*batchGroup),
	}
}

// submit enqueues one request and blocks until its batch has run (or
// ctx dies). It returns the result plus the size of the batch the
// request rode in.
func (b *batcher) submit(ctx context.Context, workload string, budget uint64, cfg ooo.Config, custom bool) (*core.Result, int, error) {
	item := &batchItem{ctx: ctx, cfg: cfg, custom: custom, done: make(chan batchDone, 1)}
	key := groupKey{workload, budget}

	// batch_wait spans the whole coalesce-to-result window: every item
	// parks before cut() detaches the batch, so the executor's record
	// and replay spans nest strictly inside it and lane 0 stays laminar.
	tr := telemetry.FromContext(ctx)
	bw := tr.Start("batch_wait")
	b.mu.Lock()
	g := b.groups[key]
	if g == nil {
		g = &batchGroup{}
		b.groups[key] = g
		if b.maxWait > 0 && b.maxSize > 1 {
			g.timer = time.AfterFunc(b.maxWait, func() { b.cut(key, g) })
		}
	}
	g.items = append(g.items, item)
	full := len(g.items) >= b.maxSize
	b.mu.Unlock()
	if full {
		b.cut(key, g)
	}

	select {
	case d := <-item.done:
		bw.SetInt("batch_size", int64(d.size))
		bw.End()
		return d.res, d.size, d.err
	case <-ctx.Done():
		// The batch still runs. abandon waits out a replay already in
		// flight (it fails fast on the dead context) or stops the
		// executor from starting one; the executor's send lands in the
		// buffered channel either way, so nothing leaks.
		item.abandon()
		bw.SetAttr("abandoned", "true")
		bw.End()
		return nil, 0, ctx.Err()
	}
}

// cut detaches the group (idempotently: the size trigger and the timer
// can race) and executes it.
func (b *batcher) cut(key groupKey, g *batchGroup) {
	b.mu.Lock()
	if b.groups[key] != g {
		b.mu.Unlock() // already cut by the other trigger
		return
	}
	delete(b.groups, key)
	if g.timer != nil {
		g.timer.Stop()
	}
	b.batches++
	b.requests += uint64(len(g.items))
	if n := uint64(len(g.items)); n > b.maxBatch {
		b.maxBatch = n
	}
	b.mu.Unlock()
	go b.execute(key, g)
}

// execute runs one batch: a single record phase, then an indexed
// fan-out of per-request replays, each under its own request context.
func (b *batcher) execute(key groupKey, g *batchGroup) {
	size := len(g.items)
	// Every item in the batch shares one record phase: each request's
	// trace gets its own "record" span over the shared work, so one
	// trace file tells the whole story of what its request waited on.
	for _, item := range g.items {
		item.beginRecord(size)
	}
	_, recErr := b.suite.RecordingBudget(b.baseCtx, key.workload, key.budget)
	for _, item := range g.items {
		item.endRecord(recErr != nil)
	}
	if recErr != nil {
		for _, item := range g.items {
			item.done <- batchDone{err: recErr, size: size}
		}
		return
	}
	var wg sync.WaitGroup
	for _, item := range g.items {
		wg.Add(1)
		go func(item *batchItem) {
			defer wg.Done()
			sp, ok := item.beginReplay()
			if !ok {
				item.done <- batchDone{err: item.ctx.Err(), size: size}
				return
			}
			var (
				res *core.Result
				err error
			)
			if item.custom {
				res, err = b.suite.ReplayConfig(item.ctx, key.workload, item.cfg, key.budget)
			} else {
				// Default machine: go through the suite cache so server
				// traffic and suite-endpoint cells share results.
				res, err = b.suite.GetBudget(item.ctx, key.workload, item.cfg.Mode, key.budget)
			}
			sp.SetBool("err", err != nil)
			sp.End()
			item.done <- batchDone{res: res, err: err, size: size}
		}(item)
	}
	wg.Wait()
}

// stats snapshots the batch counters.
func (b *batcher) stats() (batches, requests, maxBatch uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.batches, b.requests, b.maxBatch
}
