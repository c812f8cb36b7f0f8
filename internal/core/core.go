// Package core is the library facade: it wires workloads, the functional
// emulator and the out-of-order pipeline together, runs the paper's six
// fusion configurations, and caches results for the experiment drivers.
//
// Simulation is two-phase, mirroring the paper's methodology: the
// functional emulator produces the committed-path stream once per
// workload (a trace.Recording), and the cycle-level model replays it per
// configuration. Suite performs the record-once/replay-many bookkeeping
// and deduplicates concurrent requests for the same key.
//
// Every entry point takes a context.Context: cancellation and deadlines
// are honored mid-run (checked inside the pipeline's cycle loop and the
// recording emulation), and a context failure is never cached. When a
// cached recording fails to replay (e.g. a corrupt trace file was seeded
// via SeedRecording), Suite degrades gracefully: it re-emulates the
// workload live exactly once, replaces the recording, and retries — so
// one bad trace costs one extra emulation, not the whole suite run.
//
// Typical use:
//
//	w, _ := workloads.ByName("crc32")
//	res, err := core.Run(ctx, w, fusion.ModeHelios, 0)
//	fmt.Println(res.Stats.IPC())
package core

import (
	"context"
	"fmt"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"helios/internal/flight"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/telemetry"
	"helios/internal/trace"
	"helios/internal/workloads"
)

// engineSchema names the cycle-level engine's semantic generation. Bump
// it when the model changes in a way that makes previously computed
// results incomparable (new stall accounting, different fusion rules,
// ...): every result cache — the in-process Suite cache and any
// content-addressed store built on EngineVersion — keys on it, so a
// schema bump invalidates stale results instead of serving them.
const engineSchema = "helios-engine/1"

// engineVersion is computed once per process: the semantic schema plus
// the VCS identity of the binary, when the build embedded one.
var engineVersion = func() string {
	v := engineSchema
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	var rev string
	dirty := false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		v += "+" + rev
		if dirty {
			v += ".dirty"
		}
	}
	return v
}()

// EngineVersion identifies the simulation engine this process runs:
// the semantic schema plus the build's VCS revision. It is folded into
// every Suite cache key and is the engine component of heliosd's
// content-addressed result keys, so results produced by a different
// engine can never be served as current.
func EngineVersion() string { return engineVersion }

// Result is the outcome of simulating one workload under one fusion mode.
type Result struct {
	Workload string
	Mode     fusion.Mode
	Stats    ooo.Stats
}

// Run simulates workload w under the given fusion mode for maxInsts
// architectural instructions (0 = the workload's own budget).
func Run(ctx context.Context, w workloads.Workload, mode fusion.Mode, maxInsts uint64) (*Result, error) {
	cfg := ooo.DefaultConfig(mode)
	return RunConfig(ctx, w, cfg, maxInsts)
}

// RunConfig simulates with an explicit machine configuration, emulating
// the workload live (single-run callers do not pay for a recording).
func RunConfig(ctx context.Context, w workloads.Workload, cfg ooo.Config, maxInsts uint64) (*Result, error) {
	if maxInsts == 0 {
		maxInsts = w.MaxInsts
	}
	src, err := w.Trace(maxInsts)
	if err != nil {
		return nil, err
	}
	return RunSource(ctx, w.Name, cfg, src, maxInsts)
}

// RunSource simulates an explicit committed-path source — typically a
// trace.Recording replay cursor or a loaded trace file — under cfg.
// maxInsts bounds committed instructions (0 = drain the source). The
// context is polled inside the cycle loop; on cancellation the returned
// error unwraps to ctx.Err().
func RunSource(ctx context.Context, name string, cfg ooo.Config, src trace.Source, maxInsts uint64) (*Result, error) {
	cfg.MaxUops = maxInsts
	p := ooo.New(cfg, src)
	st, err := p.RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%v: %w", name, cfg.Mode, err)
	}
	return &Result{Workload: name, Mode: cfg.Mode, Stats: *st}, nil
}

// Metrics is a snapshot of the suite's record/replay observability
// counters: how much functional emulation was spent versus how often its
// product was reused, and where the wall time went.
type Metrics struct {
	TraceMisses  uint64 // recordings materialized (functional emulations)
	TraceHits    uint64 // runs served from an already-cached recording
	Replays      uint64 // replay cursors handed to the pipeline
	PipelineRuns uint64 // cycle-level simulations performed
	DedupedRuns  uint64 // Get calls that waited on an identical in-flight run

	// LiveFallbacks counts recordings re-emulated live because a cached
	// recording failed to replay (graceful degradation; at most one per
	// workload×budget key).
	LiveFallbacks uint64

	EmuTime time.Duration // wall time in functional emulation (recording)
	SimTime time.Duration // wall time in cycle-level simulation

	// FanoutWall is the elapsed wall time spent inside RunCells fan-outs;
	// CellWalls holds the per-cell wall times in scheduling (input) order.
	// With workers > 1 the cell walls sum to more than FanoutWall — the
	// ratio is the scheduler's realized speedup.
	FanoutWall time.Duration
	CellWalls  []CellWall
}

// Rows returns the deterministic counters as label/value pairs — the
// byte-stable half of the metrics surface, safe to diff across runs.
func (m Metrics) Rows() [][2]string {
	return [][2]string{
		{"trace misses (functional emulations)", fmt.Sprint(m.TraceMisses)},
		{"trace hits (recording reused)", fmt.Sprint(m.TraceHits)},
		{"replays", fmt.Sprint(m.Replays)},
		{"pipeline runs", fmt.Sprint(m.PipelineRuns)},
		{"deduped runs", fmt.Sprint(m.DedupedRuns)},
		{"live fallbacks", fmt.Sprint(m.LiveFallbacks)},
	}
}

// WallRows returns the wall-time measurements as label/value pairs:
// phase totals, then — when a scheduler fan-out ran — the elapsed
// fan-out time, the serial-equivalent sum of per-cell walls, the
// realized speedup, and each cell's wall in scheduling order. Values
// are nondeterministic by nature; the row set and order are not.
func (m Metrics) WallRows() [][2]string {
	rows := [][2]string{
		{"emulation wall", m.EmuTime.Round(time.Millisecond).String()},
		{"simulation wall", m.SimTime.Round(time.Millisecond).String()},
	}
	if m.FanoutWall > 0 {
		var sum time.Duration
		for _, c := range m.CellWalls {
			sum += c.Wall
		}
		rows = append(rows,
			[2]string{"fan-out wall (elapsed)", m.FanoutWall.Round(time.Millisecond).String()},
			[2]string{"cell walls (serial-equivalent)", sum.Round(time.Millisecond).String()},
			[2]string{"realized speedup", fmt.Sprintf("%.2fx", float64(sum)/float64(m.FanoutWall))})
		for _, c := range m.CellWalls {
			rows = append(rows, [2]string{
				"cell " + c.Workload + "/" + c.Mode.String(),
				c.Wall.Round(time.Millisecond).String(),
			})
		}
	}
	return rows
}

// Suite runs and caches simulations across workloads and modes, fanning
// out across CPUs. Each workload is functionally emulated exactly once
// per instruction budget; every mode replays the recording. The zero
// value is not usable; use NewSuite.
type Suite struct {
	MaxInsts uint64 // per-run instruction budget (0 = workload default)

	results flight.Memo[suiteKey, *Result]
	traces  flight.Memo[traceKey, traceEntry]

	mu      sync.Mutex
	metrics Metrics
}

// suiteKey identifies one cached Result. It carries everything the
// result depends on: the workload, the fusion mode, the resolved
// instruction budget and the engine version — so a budget change (or a
// result produced by a different engine build) can never be served as a
// hit for the current request.
type suiteKey struct {
	workload string
	mode     fusion.Mode
	budget   uint64
	engine   string
}

type traceKey struct {
	workload string
	maxInsts uint64
}

type traceEntry struct {
	rec *trace.Recording
	// repaired marks a recording produced by the live-fallback path: if
	// it still fails to replay, the failure is real and must surface.
	repaired bool
}

// NewSuite creates a result cache with the given per-run budget.
func NewSuite(maxInsts uint64) *Suite {
	return &Suite{MaxInsts: maxInsts}
}

// Metrics returns a snapshot of the record/replay counters.
func (s *Suite) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.metrics
	m.CellWalls = append([]CellWall(nil), s.metrics.CellWalls...)
	return m
}

// CacheSnapshot returns the cached result keys as sorted
// "workload/mode@budget" strings. The result cache is map-keyed, so the
// iteration here is explicitly sorted — `experiments -metrics` output
// and crash-dump context must be byte-stable across identical runs.
// The engine component is omitted: within one process it is constant.
func (s *Suite) CacheSnapshot() []string {
	var keys []string
	for _, k := range s.results.Keys() {
		keys = append(keys, fmt.Sprintf("%s/%s@%d", k.workload, k.mode, k.budget))
	}
	sort.Strings(keys)
	return keys
}

// budget returns the effective per-run instruction bound for w.
func (s *Suite) budget(w workloads.Workload) uint64 {
	if s.MaxInsts != 0 {
		return s.MaxInsts
	}
	return w.MaxInsts
}

// SeedRecording pre-populates the trace cache with an externally
// produced recording (e.g. loaded from a trace file), keyed by its Name
// and MaxInsts. Replays will use it instead of emulating — and if it
// turns out to be corrupt, the live-fallback path replaces it. A key
// that is already recorded, or being recorded, keeps its recording.
func (s *Suite) SeedRecording(rec *trace.Recording) {
	s.traces.Add(traceKey{rec.Name, rec.MaxInsts}, traceEntry{rec: rec})
}

// Get returns the (cached) result for one workload/mode pair at the
// suite's budget. Concurrent calls for the same uncached key share a
// single simulation. Context failures abort the wait or the run but are
// never cached, so a later Get with a live context retries.
func (s *Suite) Get(ctx context.Context, name string, mode fusion.Mode) (*Result, error) {
	return s.GetBudget(ctx, name, mode, 0)
}

// GetBudget is Get with an explicit per-call instruction budget
// (0 = the suite's own budget, falling back to the workload default).
// The resolved budget is part of the cache key, so one Suite serves
// mixed-budget traffic — heliosd's request path — without any risk of a
// budget change returning a stale result.
func (s *Suite) GetBudget(ctx context.Context, name string, mode fusion.Mode, budget uint64) (*Result, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	r, how, err := s.results.Do(ctx, suiteKey{name, mode, budget, engineVersion}, func() (*Result, error) {
		return s.run(ctx, w, mode, budget)
	})
	if how&flight.Wait != 0 {
		s.mu.Lock()
		s.metrics.DedupedRuns++
		s.mu.Unlock()
	}
	return r, err
}

// run performs one uncached simulation: fetch (or make) the workload's
// recording, replay it through the pipeline under the given mode, and on
// a replay failure degrade to one live re-emulation.
func (s *Suite) run(ctx context.Context, w workloads.Workload, mode fusion.Mode, budget uint64) (*Result, error) {
	rec, err := s.recording(ctx, w, budget)
	if err != nil {
		return nil, err
	}
	return s.replayDegrade(ctx, w, ooo.DefaultConfig(mode), rec, budget)
}

// ReplayConfig replays the workload's shared recording under an explicit
// machine configuration, with the same graceful degradation as Get: a
// recording that fails to replay is re-emulated live exactly once. The
// result is never cached here — custom configurations are open-ended, so
// caching is the caller's job (heliosd keys them by content hash) — but
// the record-once trace and its repair path are fully shared with the
// default-config traffic.
func (s *Suite) ReplayConfig(ctx context.Context, name string, cfg ooo.Config, budget uint64) (*Result, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	rec, err := s.recording(ctx, w, budget)
	if err != nil {
		return nil, err
	}
	return s.replayDegrade(ctx, w, cfg, rec, budget)
}

// replayDegrade is the replay half of one simulation: run the recording
// through the pipeline, and if the replay fails for a non-context reason
// (corrupt trace file, truncated stream, ...) degrade gracefully —
// re-emulate the workload live, once per trace key, and retry against
// the fresh recording.
func (s *Suite) replayDegrade(ctx context.Context, w workloads.Workload, cfg ooo.Config, rec *trace.Recording, budget uint64) (*Result, error) {
	r, runErr := s.replay(ctx, w.Name, cfg, rec, budget)
	if runErr == nil || flight.IsCtxErr(runErr) {
		return r, runErr
	}
	// The degrade span marks the rare repair path in the request's trace
	// — rare enough that heliosd's tail sampler boosts traces carrying it
	// (sampling.SpanBoost), so /tracez keeps evidence of degradations
	// even under heavy healthy traffic.
	sp := telemetry.FromContext(ctx).StartLane("degrade", laneFrom(ctx))
	sp.SetAttr("workload", w.Name)
	fresh, ferr := s.repairRecording(ctx, w, budget, rec)
	if ferr != nil {
		sp.SetBool("err", true)
		sp.End()
		return nil, fmt.Errorf("core: %s: replay failed (%w) and live fallback failed: %w", w.Name, runErr, ferr)
	}
	if fresh == rec {
		// Already the repaired recording: the failure is real.
		sp.SetBool("err", true)
		sp.End()
		return r, runErr
	}
	sp.SetBool("err", false)
	sp.End()
	return s.replay(ctx, w.Name, cfg, fresh, budget)
}

// replay runs one cycle-level simulation over a recording, with timing
// accounted to the suite metrics.
func (s *Suite) replay(ctx context.Context, name string, cfg ooo.Config, rec *trace.Recording, budget uint64) (*Result, error) {
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	r, err := RunSource(ctx, name, cfg, rec.Replay(), budget)
	s.mu.Lock()
	s.metrics.Replays++
	s.metrics.PipelineRuns++
	s.metrics.SimTime += time.Since(start)
	s.mu.Unlock()
	return r, err
}

// ObserveReplay replays the workload's shared recording under the given
// mode with the observability layer attached. The run is never cached
// (an observed Result is a side-effecting run, and the observer's
// writers are caller-owned), but it reuses the suite's record-once
// trace, so observing costs one replay, not a re-emulation. Replay
// determinism guarantees the observed run retires the same stream as
// the cached Get result for the same key.
func (s *Suite) ObserveReplay(ctx context.Context, name string, mode fusion.Mode, ob *obs.Observer) (*Result, error) {
	return s.ObserveReplayConfig(ctx, name, ooo.DefaultConfig(mode), 0, ob)
}

// ObserveReplayConfig is ObserveReplay with an explicit pipeline config
// and instruction budget (0 = the suite's budget) — the form heliosd's
// `/v1/run` obs artifacts route through, so a request carrying a custom
// config still gets its pipeview/events/interval streams from the same
// record-once trace as the cached result for that key. cfg.Obs is
// overwritten with ob; everything else is the caller's.
func (s *Suite) ObserveReplayConfig(ctx context.Context, name string, cfg ooo.Config, budget uint64, ob *obs.Observer) (*Result, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	rec, err := s.recording(ctx, w, budget)
	if err != nil {
		return nil, err
	}
	cfg.Obs = ob
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	r, err := RunSource(ctx, name, cfg, rec.Replay(), budget)
	s.mu.Lock()
	s.metrics.Replays++
	s.metrics.PipelineRuns++
	s.metrics.SimTime += time.Since(start)
	s.mu.Unlock()
	if err != nil {
		return r, err
	}
	if oerr := ob.Err(); oerr != nil {
		return r, fmt.Errorf("core: %s/%v: observer: %w", name, cfg.Mode, oerr)
	}
	return r, nil
}

// Recording returns the workload's committed stream at the suite's
// budget, materializing it on first use (experiment drivers replay it for
// trace analyses without re-emulating).
func (s *Suite) Recording(ctx context.Context, name string) (*trace.Recording, error) {
	return s.RecordingBudget(ctx, name, 0)
}

// RecordingBudget is Recording with an explicit instruction budget
// (0 = the suite's budget). heliosd calls it first on a cache miss, so
// the request's trace shows the record phase apart from the replay.
// Like every entry point it runs under the caller's context: a
// recording cut short by its leader's deadline is not cached, and a
// concurrent caller whose context is still live records it again.
func (s *Suite) RecordingBudget(ctx context.Context, name string, budget uint64) (*trace.Recording, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return nil, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.budget(w)
	}
	return s.recording(ctx, w, budget)
}

// recording is the record-once half: per (workload, budget) key, the
// first caller emulates and everyone else waits for or reuses the buffer.
// A context failure during emulation is returned but not cached.
func (s *Suite) recording(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
	e, how, err := s.traces.Do(ctx, traceKey{w.Name, budget}, func() (traceEntry, error) {
		rec, err := s.emulate(ctx, w, budget)
		return traceEntry{rec: rec}, err
	})
	s.mu.Lock()
	if how&flight.Hit != 0 {
		s.metrics.TraceHits++
	}
	if how&flight.Run != 0 {
		s.metrics.TraceMisses++
	}
	s.mu.Unlock()
	return e.rec, err
}

// emulate records the workload's committed stream under ctx, with its
// wall time accounted to the suite metrics.
func (s *Suite) emulate(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	defer func() {
		s.mu.Lock()
		s.metrics.EmuTime += time.Since(start)
		s.mu.Unlock()
	}()
	src, err := w.Trace(budget)
	if err != nil {
		return nil, err
	}
	rec, err := trace.Record(trace.WithContext(ctx, src))
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	rec.Name = w.Name
	rec.MaxInsts = budget
	return rec, nil
}

// repairRecording implements the degradation path: replace a recording
// that failed to replay with one fresh live emulation. At most one
// repair happens per trace key — if the repaired recording also fails,
// callers surface the failure. bad is the recording the caller just
// watched fail, so a concurrent repair is detected and reused.
func (s *Suite) repairRecording(ctx context.Context, w workloads.Workload, budget uint64, bad *trace.Recording) (*trace.Recording, error) {
	// Only the unrepaired bad recording is stale: anything else stored
	// is someone's finished repair (or the repaired recording the caller
	// just replayed) and comes back as-is. A repair cut short by its
	// context leaves the bad entry for a later call to retry.
	stale := func(e traceEntry) bool { return e.rec == bad && !e.repaired }
	e, how, err := s.traces.Redo(ctx, traceKey{w.Name, budget}, stale, func() (traceEntry, error) {
		rec, err := s.emulate(ctx, w, budget)
		return traceEntry{rec: rec, repaired: true}, err
	})
	if how&flight.Run != 0 && !flight.IsCtxErr(err) {
		s.mu.Lock()
		s.metrics.LiveFallbacks++
		s.mu.Unlock()
	}
	return e.rec, err
}

// Prefetch runs every workload under each mode in parallel, filling the
// cache with GOMAXPROCS workers. Errors surface on the corresponding
// Get; Prefetch stops issuing work once ctx fails. It is PrefetchN with
// the default worker bound.
func (s *Suite) Prefetch(ctx context.Context, names []string, modes []fusion.Mode) {
	s.PrefetchN(ctx, names, modes, 0)
}
