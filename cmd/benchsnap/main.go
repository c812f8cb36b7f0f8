// Command benchsnap runs the repo's benchmark trajectory set and writes
// a machine-readable JSON snapshot (BENCH_*.json at the repo root, one
// per PR). Committing the snapshot is what makes performance a gated,
// reviewable quantity: every later PR's snapshot is diffable against the
// previous one, so a hot-path regression shows up in review the same way
// a failing test would.
//
// Usage:
//
//	go run ./cmd/benchsnap -out BENCH_pr6.json
//	go run ./cmd/benchsnap -out /tmp/now.json -benchtime 5x -count 3
//	go run ./cmd/benchsnap -out now.json -diff BENCH_baseline.json
//
// The snapshot schema is documented in EXPERIMENTS.md ("Benchmark
// trajectory"). With -count > 1 the best (minimum ns/op) run per
// benchmark is kept, the usual way to suppress scheduler noise.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Snapshot is the committed benchmark-trajectory document.
type Snapshot struct {
	Schema     string  `json:"schema"`  // "helios/bench-snapshot/v1"
	Created    string  `json:"created"` // RFC 3339 UTC
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	CPU        string  `json:"cpu,omitempty"` // "cpu:" line from go test
	NumCPU     int     `json:"num_cpu"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Benchtime  string  `json:"benchtime"`
	Count      int     `json:"count"`
	Benchmarks []Bench `json:"benchmarks"` // sorted by pkg, then name
}

// Bench is one parsed benchmark result line.
type Bench struct {
	Pkg         string  `json:"pkg"`
	Name        string  `json:"name"`  // without the -N procs suffix
	Procs       int     `json:"procs"` // the -N suffix (GOMAXPROCS at run time)
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every custom b.ReportMetric column, keyed by unit
	// (e.g. "cycles/op", "emulations").
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// SimCyclesPerSec is derived when the benchmark reports a
	// "cycles/op" metric: simulated cycles per wall-clock second, the
	// headline throughput of the cycle-level engine.
	SimCyclesPerSec float64 `json:"sim_cycles_per_sec,omitempty"`
}

func main() {
	var (
		out       = flag.String("out", "", "output JSON path (required)")
		benchRe   = flag.String("bench", defaultBenchRe, "go test -bench regexp")
		benchtime = flag.String("benchtime", "3x", "go test -benchtime value")
		count     = flag.Int("count", 1, "go test -count; best (min ns/op) run is kept")
		pkgSpec   = flag.String("pkgs", ". ./internal/ooo ./internal/serve", "space-separated package patterns to benchmark")
		diff      = flag.String("diff", "", "optional: print a comparison against this previous snapshot")
	)
	flag.Parse()
	if *out == "" {
		fmt.Fprintln(os.Stderr, "benchsnap: -out is required")
		os.Exit(2)
	}

	args := []string{"test", "-run", "^$", "-bench", *benchRe, "-benchmem",
		"-benchtime", *benchtime, "-count", strconv.Itoa(*count)}
	args = append(args, strings.Fields(*pkgSpec)...)
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Fprintf(os.Stderr, "benchsnap: go %s\n", strings.Join(args, " "))
	if err := cmd.Run(); err != nil {
		os.Stderr.Write(buf.Bytes())
		fmt.Fprintf(os.Stderr, "benchsnap: go test failed: %v\n", err)
		os.Exit(1)
	}

	snap := &Snapshot{
		Schema:     "helios/bench-snapshot/v1",
		Created:    time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchtime:  *benchtime,
		Count:      *count,
	}
	if err := parseInto(snap, &buf); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	if len(snap.Benchmarks) == 0 {
		fmt.Fprintf(os.Stderr, "benchsnap: no benchmark lines matched %q\n", *benchRe)
		os.Exit(1)
	}

	b, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchsnap: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s: %d benchmarks\n", *out, len(snap.Benchmarks))

	if *diff != "" {
		if err := printDiff(*diff, snap); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: diff: %v\n", err)
			os.Exit(1)
		}
	}
}

// defaultBenchRe is the committed trajectory set: the suite-level wall
// benchmark (serial and parallel scheduler), the replay hot path with
// observability off and on, one replay rung per fusion machinery
// (NoFusion, Helios, Oracle), the two front-end layers alone over a
// recorded stream (BenchmarkTAGE, BenchmarkOracle), and heliosd request
// latency over HTTP (BenchmarkServeRun: hit, miss, obs).
const defaultBenchRe = "^(BenchmarkSuiteFig10|BenchmarkSuiteParallel|BenchmarkPipelineObsOff|BenchmarkPipelineObsOn|BenchmarkPipelineNoFusion|BenchmarkPipelineHelios|BenchmarkPipelineOracle|BenchmarkTAGE|BenchmarkOracle|BenchmarkServeRun)$"

// parseInto scans `go test -bench` output. Benchmark result lines look
// like:
//
//	BenchmarkName/sub-8   12   345 ns/op   6 B/op   7 allocs/op   8.0 widgets
//
// i.e. name, iteration count, then (value, unit) pairs. "pkg:" and
// "cpu:" header lines carry the package and CPU identity.
func parseInto(snap *Snapshot, buf *bytes.Buffer) error {
	best := make(map[string]*Bench) // pkg+"\x00"+name -> best run
	pkg := ""
	sc := bufio.NewScanner(buf)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "pkg: "):
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			snap.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		case !strings.HasPrefix(line, "Benchmark"):
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 || len(f)%2 != 0 {
			continue
		}
		name, procs := splitProcs(f[0])
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := &Bench{Pkg: pkg, Name: name, Procs: procs, Iterations: iters}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return fmt.Errorf("line %q: bad value %q", line, f[i])
			}
			switch unit := f[i+1]; unit {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = v
			case "allocs/op":
				b.AllocsPerOp = v
			default:
				if b.Metrics == nil {
					b.Metrics = make(map[string]float64)
				}
				b.Metrics[unit] = v
			}
		}
		if c, ok := b.Metrics["cycles/op"]; ok && b.NsPerOp > 0 {
			b.SimCyclesPerSec = c / b.NsPerOp * 1e9
		}
		key := pkg + "\x00" + name
		if prev, ok := best[key]; !ok || b.NsPerOp < prev.NsPerOp {
			best[key] = b
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	keys := make([]string, 0, len(best))
	for k := range best {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap.Benchmarks = append(snap.Benchmarks, *best[k])
	}
	return nil
}

// splitProcs strips the trailing -N GOMAXPROCS suffix go test appends to
// benchmark names.
func splitProcs(name string) (string, int) {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name, 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil {
		return name, 1
	}
	return name[:i], n
}

// printDiff renders an old-vs-new comparison for the benchmarks present
// in both snapshots: ns/op, allocs/op and simulated-cycles/sec deltas.
func printDiff(oldPath string, now *Snapshot) error {
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		return err
	}
	var old Snapshot
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("%s: %w", oldPath, err)
	}
	prev := make(map[string]Bench)
	for _, b := range old.Benchmarks {
		prev[b.Pkg+"\x00"+b.Name] = b
	}
	fmt.Printf("\n%-44s %14s %14s %9s %9s\n", "benchmark (vs "+oldPath+")",
		"ns/op", "allocs/op", "Δns", "Δallocs")
	for _, b := range now.Benchmarks {
		p, ok := prev[b.Pkg+"\x00"+b.Name]
		if !ok {
			fmt.Printf("%-44s %14.0f %14.0f %9s %9s\n", b.Name, b.NsPerOp, b.AllocsPerOp, "new", "new")
			continue
		}
		fmt.Printf("%-44s %14.0f %14.0f %8.1f%% %8.1f%%\n", b.Name,
			b.NsPerOp, b.AllocsPerOp, pct(b.NsPerOp, p.NsPerOp), pct(b.AllocsPerOp, p.AllocsPerOp))
	}
	return nil
}

// pct returns the relative change now vs then in percent (negative =
// improvement).
func pct(now, then float64) float64 {
	if then == 0 {
		return 0
	}
	return (now - then) / then * 100
}
