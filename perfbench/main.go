// Command perfbench is the Helios repository benchmark. One process runs
// one named workload, checks its outputs and prints every metric by name
// and unit as the last line of standard output:
//
//	perfbench --workload fig10-cold --seed 1 --seconds 25 --trace 0
//
// --trace 0 measures the end-to-end metrics; --trace 1 is a separate run
// that records benchmark-side spans around each call into a layer and
// prints the per-layer metrics instead. README.md maps every metric to
// its layer and workload.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"helios/internal/core"
)

// metric is one reported measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract: the last stdout line.
// A workload puts every measurement in Metrics; main keeps there the
// ones BENCHMARK.json names (endToEnd or perLayer) and prints the rest,
// which only that workload has, on a detail line before the result.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The metrics every workload reports, as BENCHMARK.json names them. A
// run is compared with runs of the same workload on another commit by
// these names, so each must exist on every workload.
var (
	endToEnd = []string{"setup_s", "max_rss_mb", "wall_s", "op_p50_ms", "op_p90_ms"}
	perLayer = []string{"emu.mips", "core.record_s", "trace.recording_mb",
		"ooo.replay_s", "ooo.ns_per_cycle", "ooo.sim_cycles",
		"core.trace_misses", "core.pipeline_runs", "trace_overhead_s"}
)

// params configures one workload run. Seconds bounds the measured phase;
// Insts scales the simulated work (0 = the workload's paper-scale size).
// Tests shrink both.
type params struct {
	Seed    int64
	Seconds float64
	Trace   bool
	Insts   uint64
}

// workloadFunc runs one workload and reports its result. When p.Trace
// is set, sp records the run's spans.
type workloadFunc func(ctx context.Context, p params, g *goldens, sp *spans) (*result, error)

var workloadFuncs = map[string]workloadFunc{
	"fig10-cold": runFig10,
	"serve-mix":  runServeMix,
	"obs-replay": runObsReplay,
}

func main() {
	name := flag.String("workload", "", "workload: fig10-cold, serve-mix or obs-replay")
	seed := flag.Int64("seed", 1, "seed for the workload's inputs")
	seconds := flag.Float64("seconds", 25, "length of the measured phase")
	traced := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()

	fn, ok := workloadFuncs[*name]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	g, err := loadGoldens()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	p := params{Seed: *seed, Seconds: *seconds, Trace: *traced == 1}
	var sp *spans
	if p.Trace {
		sp = newSpans()
	}
	printEnv(p.Seed)
	res, err := fn(context.Background(), p, g, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if sp != nil {
		path := fmt.Sprintf(".bench_build/spans/%s-seed%d.ndjson", *name, p.Seed)
		if err := sp.writeFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: spans:", err)
		}
	}
	names := endToEnd
	if p.Trace {
		names = perLayer
	}
	detail, err := split(res, names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if len(detail) > 0 {
		printLine(map[string]any{"detail": detail})
	}
	printLine(res)
}

// split keeps in res.Metrics exactly the named metrics and returns the
// others; it fails if a named one is missing.
func split(res *result, names []string) (map[string]metric, error) {
	detail := res.Metrics
	res.Metrics = map[string]metric{}
	for _, n := range names {
		m, ok := detail[n]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", n)
		}
		res.Metrics[n] = m
		delete(detail, n)
	}
	return detail, nil
}

// printLine prints v as one line of JSON.
func printLine(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// printEnv stamps the run with its environment, on the first line of
// its output, so later comparisons can be read in context.
func printEnv(seed int64) {
	env := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"seed":       seed,
		"engine":     core.EngineVersion(),
	}
	printLine(map[string]any{"env": env})
}

// deadline returns when the measured phase of a run that starts now ends.
func deadline(seconds float64) time.Time {
	return time.Now().Add(time.Duration(seconds * float64(time.Second)))
}
