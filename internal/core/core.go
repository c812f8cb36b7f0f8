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
// Every run records first and then replays, single runs included. A
// recording is validated once, where it is built, so every replay of it
// is deterministic: a replay that fails would fail again on a fresh
// recording, and its error reaches the caller as is.
//
// Every entry point takes a context.Context: cancellation and deadlines
// are honored mid-run (checked inside the pipeline's cycle loop and the
// recording emulation), and a context failure is never cached.
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
	"strconv"
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
// ...): every result store that outlives the process — heliosd's
// manifests and any content-addressed store built on EngineVersion —
// keys on it, so a schema bump invalidates stale results instead of
// serving them.
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
// the semantic schema plus the build's VCS revision. It is the engine
// component of heliosd's content-addressed result keys, so results
// produced by a different engine can never be served as current.
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

// RunConfig simulates with an explicit machine configuration: it records
// the workload's committed stream once and replays it.
func RunConfig(ctx context.Context, w workloads.Workload, cfg ooo.Config, maxInsts uint64) (*Result, error) {
	if maxInsts == 0 {
		maxInsts = w.MaxInsts
	}
	rec, err := record(ctx, w, maxInsts)
	if err != nil {
		return nil, err
	}
	return Replay(ctx, rec, cfg, maxInsts)
}

// Replay simulates a recording — the Suite's, or one loaded from a trace
// file — under cfg; the Result is named after rec.Name. maxInsts bounds
// committed instructions (0 = the whole recording). The context is
// polled inside the cycle loop; on cancellation the returned error
// unwraps to ctx.Err().
func Replay(ctx context.Context, rec *trace.Recording, cfg ooo.Config, maxInsts uint64) (*Result, error) {
	cfg.MaxUops = maxInsts
	st, err := ooo.New(cfg, rec).RunContext(ctx)
	if err != nil {
		return nil, fmt.Errorf("core: %s/%v: %w", rec.Name, cfg.Mode, err)
	}
	return &Result{Workload: rec.Name, Mode: cfg.Mode, Stats: *st}, nil
}

// Metrics is a snapshot of the suite's record/replay observability
// counters: how much functional emulation was spent versus how often its
// product was reused, and where the wall time went.
type Metrics struct {
	TraceMisses  uint64 // recordings materialized (functional emulations)
	TraceHits    uint64 // runs served from an already-cached recording
	Replays      uint64 // recordings replayed through the pipeline
	PipelineRuns uint64 // cycle-level simulations performed
	DedupedRuns  uint64 // Get calls that waited on an identical in-flight run

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

// Suite runs and caches simulations across workloads and machine
// configurations, fanning out across CPUs. Each workload is functionally
// emulated exactly once per instruction budget; every configuration
// replays the recording. It holds the process's one result cache:
// experiment drivers, heliosd's /v1/run and /v1/suite, and heliosd's
// warm start all read and fill it. The zero value is not usable; use
// NewSuite.
type Suite struct {
	MaxInsts uint64 // per-run instruction budget (0 = workload default)

	results flight.Memo[suiteKey, *Result]
	traces  flight.Memo[traceKey, *trace.Recording]

	mu      sync.Mutex
	metrics Metrics
}

// suiteKey identifies one cached Result: the workload, the resolved
// instruction budget and the whole machine configuration (cfg.Obs
// cleared), so a budget or configuration change can never be served a
// stale result. The engine is not part of it: within one process it is
// constant, and heliosd's warm start rejects manifests from another
// engine before they reach the cache.
type suiteKey struct {
	workload string
	budget   uint64
	cfg      ooo.Config
}

type traceKey struct {
	workload string
	maxInsts uint64
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
// "workload/mode@budget" strings, with "+custom" appended for a machine
// other than the mode's default. The result cache is map-keyed, so the
// iteration here is explicitly sorted — `experiments -metrics` output
// and crash-dump context must be byte-stable across identical runs.
func (s *Suite) CacheSnapshot() []string {
	var keys []string
	for _, k := range s.results.Keys() {
		key := fmt.Sprintf("%s/%s@%d", k.workload, k.cfg.Mode, k.budget)
		if k.cfg != ooo.DefaultConfig(k.cfg.Mode) {
			key += "+custom"
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys
}

// CacheLen reports how many results the cache holds.
func (s *Suite) CacheLen() int { return s.results.Len() }

// resolve looks the workload up and resolves a per-call budget: 0 is
// the suite's budget, falling back to the workload's own.
func (s *Suite) resolve(name string, budget uint64) (workloads.Workload, uint64, error) {
	w, ok := workloads.ByName(name)
	if !ok {
		return w, 0, fmt.Errorf("core: unknown workload %q", name)
	}
	if budget == 0 {
		budget = s.MaxInsts
	}
	if budget == 0 {
		budget = w.MaxInsts
	}
	return w, budget, nil
}

// SeedResult pre-populates the result cache with a result computed
// earlier (heliosd restores them from disk at boot), keyed like Result
// under the resolved, non-zero budget. It reports whether r was stored:
// a key that already has a result, or a run in flight, keeps it.
func (s *Suite) SeedResult(name string, cfg ooo.Config, budget uint64, r *Result) bool {
	cfg.Obs = nil
	return s.results.Add(suiteKey{name, budget, cfg}, r)
}

// Get returns the (cached) result for one workload/mode pair at the
// suite's budget on the mode's default machine.
func (s *Suite) Get(ctx context.Context, name string, mode fusion.Mode) (*Result, error) {
	return s.GetBudget(ctx, name, mode, 0)
}

// GetBudget is Get with an explicit per-call instruction budget
// (0 = the suite's own budget, falling back to the workload default).
func (s *Suite) GetBudget(ctx context.Context, name string, mode fusion.Mode, budget uint64) (*Result, error) {
	r, _, err := s.Result(ctx, name, ooo.DefaultConfig(mode), budget)
	return r, err
}

// Result is the one memoized result path: the result of workload name
// on machine cfg (cfg.Obs is ignored) for budget instructions (0 = the
// suite's budget, falling back to the workload default). Concurrent
// calls for the same uncached key share one simulation; the Outcome
// says how this call was served (flight.Hit alone is a pure cache hit).
// Errors are cached, since a deterministic run that faults will fault
// again, except context failures, which abort the wait or the run but
// are never cached, so a later call with a live context retries.
//
// With a telemetry trace on ctx, the call opens a cache_read span and,
// on a miss, record and replay spans after it, on the ctx's scheduler
// lane. A miss looks the workload's recording up once.
func (s *Suite) Result(ctx context.Context, name string, cfg ooo.Config, budget uint64) (*Result, flight.Outcome, error) {
	w, budget, err := s.resolve(name, budget)
	if err != nil {
		return nil, 0, err
	}
	cfg.Obs = nil
	// cache_read covers the lookup and any wait on an identical run. A
	// miss ends it before running, so the record and replay spans follow
	// it on the lane instead of nesting in it.
	rd := telemetry.FromContext(ctx).StartLane("cache_read", laneFrom(ctx))
	ran := false
	r, how, err := s.results.Do(ctx, suiteKey{name, budget, cfg}, func() (*Result, error) {
		ran = true
		rd.SetAttr("hit", "false")
		rd.SetBool("coalesced", false)
		rd.End()
		return s.run(ctx, w, cfg, budget)
	})
	if !ran {
		rd.SetAttr("hit", strconv.FormatBool(how&flight.Hit != 0))
		rd.SetBool("coalesced", how&flight.Wait != 0)
		rd.End()
	}
	if how&flight.Wait != 0 {
		s.mu.Lock()
		s.metrics.DedupedRuns++
		s.mu.Unlock()
	}
	return r, how, err
}

// run performs one uncached simulation: fetch (or make) the workload's
// recording and replay it through the pipeline on cfg.
func (s *Suite) run(ctx context.Context, w workloads.Workload, cfg ooo.Config, budget uint64) (*Result, error) {
	tr, lane := telemetry.FromContext(ctx), laneFrom(ctx)
	sp := tr.StartLane("record", lane)
	rec, err := s.recording(ctx, w, budget)
	sp.SetBool("err", err != nil)
	sp.End()
	if err != nil {
		return nil, err
	}
	sp = tr.StartLane("replay", lane)
	sp.SetBool("custom", cfg != ooo.DefaultConfig(cfg.Mode))
	r, err := s.replay(ctx, cfg, rec, budget)
	sp.SetBool("err", err != nil)
	sp.End()
	return r, err
}

// ReplayConfig replays the workload's shared recording under an explicit
// machine configuration. Unlike Result it never reads or fills the
// result cache — each call is a fresh replay — but the record-once trace
// is shared.
func (s *Suite) ReplayConfig(ctx context.Context, name string, cfg ooo.Config, budget uint64) (*Result, error) {
	w, budget, err := s.resolve(name, budget)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, w, cfg, budget)
}

// replay runs one cycle-level simulation over a recording, with timing
// accounted to the suite metrics.
func (s *Suite) replay(ctx context.Context, cfg ooo.Config, rec *trace.Recording, budget uint64) (*Result, error) {
	start := time.Now() //helios:nondeterminism-ok wall-time metrics only; simulated results never read it
	r, err := Replay(ctx, rec, cfg, budget)
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
	w, budget, err := s.resolve(name, budget)
	if err != nil {
		return nil, err
	}
	rec, err := s.recording(ctx, w, budget)
	if err != nil {
		return nil, err
	}
	cfg.Obs = ob
	r, err := s.replay(ctx, cfg, rec, budget)
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
// (0 = the suite's budget). Like every entry point it runs under the
// caller's context: a recording cut short by its leader's deadline is
// not cached, and a concurrent caller whose context is still live
// records it again.
func (s *Suite) RecordingBudget(ctx context.Context, name string, budget uint64) (*trace.Recording, error) {
	w, budget, err := s.resolve(name, budget)
	if err != nil {
		return nil, err
	}
	return s.recording(ctx, w, budget)
}

// recording is the record-once half: per (workload, budget) key, the
// first caller emulates and everyone else waits for or reuses the buffer.
// A context failure during emulation is returned but not cached.
func (s *Suite) recording(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
	rec, how, err := s.traces.Do(ctx, traceKey{w.Name, budget}, func() (*trace.Recording, error) {
		return s.emulate(ctx, w, budget)
	})
	s.mu.Lock()
	if how&flight.Hit != 0 {
		s.metrics.TraceHits++
	}
	if how&flight.Run != 0 {
		s.metrics.TraceMisses++
	}
	s.mu.Unlock()
	return rec, err
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
	return record(ctx, w, budget)
}

// record emulates the workload's committed stream for budget
// instructions under ctx and records it.
func record(ctx context.Context, w workloads.Workload, budget uint64) (*trace.Recording, error) {
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

// Prefetch runs every workload under each mode in parallel, filling the
// cache with GOMAXPROCS workers. Errors surface on the corresponding
// Get; Prefetch stops issuing work once ctx fails. It is PrefetchN with
// the default worker bound.
func (s *Suite) Prefetch(ctx context.Context, names []string, modes []fusion.Mode) {
	s.PrefetchN(ctx, names, modes, 0)
}
