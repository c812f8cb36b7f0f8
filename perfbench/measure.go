package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"helios/internal/core"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/workloads"
)

// spans records benchmark-side spans around calls into the program's
// layers: name, start, end and the span that caused it. A nil *spans
// records nothing, so untraced runs execute the same code with no
// tracing cost. Spans stay in memory until the run ends.
type spans struct {
	mu   sync.Mutex
	t0   time.Time
	list []span
}

type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 = root
	Name   string  `json:"name"`
	Attr   string  `json:"attr,omitempty"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// start opens a span and returns its id (0 when sp is nil).
func (sp *spans) start(name, attr string, parent int) int {
	if sp == nil {
		return 0
	}
	now := float64(time.Since(sp.t0).Nanoseconds()) / 1e3
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.list = append(sp.list, span{ID: len(sp.list) + 1, Parent: parent, Name: name, Attr: attr, Start: now})
	return len(sp.list)
}

// end closes the span id.
func (sp *spans) end(id int) {
	if sp == nil {
		return
	}
	now := float64(time.Since(sp.t0).Nanoseconds()) / 1e3
	sp.mu.Lock()
	sp.list[id-1].End = now
	sp.mu.Unlock()
}

// durations returns the durations of the spans named name whose attr
// matches (an empty attr matches every span of that name), in seconds.
func (sp *spans) durations(name, attr string) []float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var out []float64
	for _, s := range sp.list {
		if s.Name == name && (attr == "" || s.Attr == attr) {
			out = append(out, (s.End-s.Start)/1e6)
		}
	}
	return out
}

// total sums durations(name, attr).
func (sp *spans) total(name, attr string) float64 {
	var t float64
	for _, d := range sp.durations(name, attr) {
		t += d
	}
	return t
}

// childTotal sums the durations, in seconds, of the spans named name
// whose parent is the span parent.
func (sp *spans) childTotal(parent int, name string) float64 {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	var t float64
	for _, s := range sp.list {
		if s.Name == name && s.Parent == parent {
			t += (s.End - s.Start) / 1e6
		}
	}
	return t
}

// writeFile writes the spans as NDJSON.
func (sp *spans) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	sp.mu.Lock()
	for _, s := range sp.list {
		if err := enc.Encode(s); err != nil {
			sp.mu.Unlock()
			return err
		}
	}
	sp.mu.Unlock()
	if err := w.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the nearest-rank p-th percentile of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(float64(len(s))*p/100)) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tracedTurn reports whether turn i of an untraced-against-traced
// comparison is the traced side. The sides take turns in the order
// untraced, traced, traced, untraced, and so on, so neither side always
// runs first and slow drift in host speed falls on both alike.
func tracedTurn(i int) bool { return (i+1)/2%2 == 1 }

// seconds returns the elapsed time since t0 in seconds.
func seconds(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// medianMetrics returns, for each metric, its median over runs.
func medianMetrics(runs []map[string]metric) map[string]metric {
	vals := map[string][]float64{}
	units := map[string]string{}
	for _, r := range runs {
		for k, m := range r {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	out := map[string]metric{}
	for k, v := range vals {
		out[k] = metric{median(v), units[k]}
	}
	return out
}

// maxRSSMiB returns the process's peak resident set size in MiB.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// settle returns freed memory to the OS between repetitions, so one
// repetition's garbage does not raise the next one's peak.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// repeatSetup runs setup n times and returns the median wall time in
// seconds and the last repetition's value; teardown releases each
// earlier repetition before the next starts.
func repeatSetup[T any](n int, setup func() (T, error), teardown func(T)) (float64, T, error) {
	var walls []float64
	var v T
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown(v)
			settle()
		}
		t0 := time.Now()
		var err error
		if v, err = setup(); err != nil {
			return 0, v, err
		}
		walls = append(walls, seconds(t0))
	}
	return median(walls), v, nil
}

// modeName is the metric-name form of a fusion mode ("RISCVFusion++"
// becomes "RISCVFusionPP": metric names admit no '+').
func modeName(m fusion.Mode) string {
	return strings.ReplaceAll(m.String(), "+", "P")
}

// putEndToEnd records the end-to-end metrics every workload reports:
// wall is the median wall of one unit of the workload's work and ops
// the latencies, in seconds, of its single operations.
func putEndToEnd(mt map[string]metric, setupS, wall float64, ops []float64) {
	mt["setup_s"] = metric{setupS, "s"}
	mt["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
	mt["wall_s"] = metric{wall, "s"}
	mt["op_p50_ms"] = metric{percentile(ops, 50) * 1e3, "ms"}
	mt["op_p90_ms"] = metric{percentile(ops, 90) * 1e3, "ms"}
}

// putReplay records the ooo metrics of a set of cycle-level replays
// that took replayS seconds and simulated cycles cycles.
func putReplay(mt map[string]metric, replayS float64, cycles uint64) {
	mt["ooo.replay_s"] = metric{replayS, "s"}
	mt["ooo.sim_cycles"] = metric{float64(cycles), "count"}
	mt["ooo.ns_per_cycle"] = metric{replayS * 1e9 / float64(cycles), "ns"}
}

// putRecording records the core and trace metrics of recordings of
// insts instructions in total that took recordS seconds to make.
func putRecording(mt map[string]metric, recordS float64, insts int) {
	mt["core.record_s"] = metric{recordS, "s"}
	mt["trace.recording_mb"] = metric{float64(insts) * float64(unsafe.Sizeof(emu.Retired{})) / (1 << 20), "MiB"}
}

// putCounters records the suite's work counters.
func putCounters(mt map[string]metric, m core.Metrics) {
	mt["core.trace_misses"] = metric{float64(m.TraceMisses), "count"}
	mt["core.pipeline_runs"] = metric{float64(m.PipelineRuns), "count"}
}

// recordAll records each named workload on s, one at a time, and
// returns the seconds spent and the instructions recorded. Workloads
// that record in their set-up call it in their traced run on a suite
// whose recordings are still to be made.
func recordAll(ctx context.Context, s *core.Suite, names []string, sp *spans) (float64, int, error) {
	var secs float64
	var insts int
	for _, name := range names {
		id := sp.start("core.record", name, 0)
		t0 := time.Now()
		rec, err := s.RecordingBudget(ctx, name, 0)
		secs += seconds(t0)
		sp.end(id)
		if err != nil {
			return 0, 0, err
		}
		insts += rec.Len()
	}
	return secs, insts, nil
}

// emuMIPS times Machine.Run over each named workload's budget (insts,
// or the workload's own when 0) and returns the emulator's rate in
// millions of instructions per second.
func emuMIPS(names []string, insts uint64, sp *spans) (float64, error) {
	var n uint64
	var secs float64
	for _, name := range names {
		w, _ := workloads.ByName(name) // callers pass registered names
		m, err := w.NewMachine()
		if err != nil {
			return 0, err
		}
		budget := insts
		if budget == 0 {
			budget = w.MaxInsts
		}
		id := sp.start("emu.run", w.Name, 0)
		t0 := time.Now()
		ran, err := m.Run(budget)
		secs += seconds(t0)
		sp.end(id)
		if err != nil {
			return 0, fmt.Errorf("emulate %s: %w", w.Name, err)
		}
		n += ran
	}
	return float64(n) / secs / 1e6, nil
}
