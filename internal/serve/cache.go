package serve

import (
	"context"
	"sync/atomic"

	"helios/internal/core"
	"helios/internal/flight"
	"helios/internal/telemetry"
)

// resultCache is the content-addressed result store: the first request
// for a key runs the simulation, every concurrent identical request
// waits on the same run, and later requests are pure hits. Context
// failures are never cached, so a deadline that expires while waiting
// poisons nothing.
type resultCache struct {
	results flight.Memo[string, *core.Result]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
}

// do returns the cached result for key, or runs fn once to produce it.
// cached reports a pure hit; coalesced reports that this call waited on
// an identical in-flight run. Errors are cached (a deterministic
// request that faults will fault again) except context failures, which
// belong to the caller, not the key.
func (c *resultCache) do(ctx context.Context, key string, fn func() (*core.Result, error)) (res *core.Result, cached, coalesced bool, err error) {
	// cache_read covers the lookup and any wait on an identical run. A
	// miss ends it before running fn, so the miss's record and replay
	// spans follow it on the lane instead of nesting in it.
	rd := telemetry.FromContext(ctx).Start("cache_read")
	ran := false
	res, how, err := c.results.Do(ctx, key, func() (*core.Result, error) {
		ran = true
		rd.SetAttr("hit", "false")
		rd.SetBool("coalesced", false)
		rd.End()
		return fn()
	})
	if !ran {
		rd.SetAttr("hit", boolStr(how&flight.Hit != 0))
		rd.SetBool("coalesced", how&flight.Wait != 0)
		rd.End()
	}
	if how&flight.Hit != 0 {
		c.hits.Add(1)
	}
	if how&flight.Run != 0 {
		c.misses.Add(1)
	}
	if how&flight.Wait != 0 {
		c.coalesced.Add(1)
	}
	return res, how == flight.Hit, how&flight.Wait != 0, err
}

// warm installs a result restored from disk, reporting whether it was
// stored. Boot-time only, before traffic: a live entry (or in-flight
// run) for the key wins over the disk copy, and warmed entries never
// count as hits or misses until a request touches them.
func (c *resultCache) warm(key string, res *core.Result) bool {
	return c.results.Add(key, res)
}

// stats snapshots the cache counters.
func (c *resultCache) stats() (entries int, hits, misses, coalesced uint64) {
	return c.results.Len(), c.hits.Load(), c.misses.Load(), c.coalesced.Load()
}
