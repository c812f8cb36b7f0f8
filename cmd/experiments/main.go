// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                  # everything, paper order
//	experiments -id fig10        # one experiment
//	experiments -insts 100000    # smaller budget per run
//	experiments -csv             # machine-readable output
//	experiments -workloads xz,gcc,typeset
//	experiments -obs out/ -obs-mode Helios   # per-workload pipeline traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind main: it parses args, writes the
// tables to stdout and diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		id       = fs.String("id", "", "experiment id ("+strings.Join(experiments.IDs(), ", ")+"); empty = all")
		insts    = fs.Uint64("insts", 0, "instruction budget per run (0 = workload defaults)")
		csv      = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		worklist = fs.String("workloads", "", "comma-separated workload subset (default: all)")
		metrics  = fs.Bool("metrics", false, "print record/replay trace-layer counters after the tables (deterministic: byte-identical across identical runs)")
		walltime = fs.Bool("walltime", false, "also print wall-time breakdown to stderr (nondeterministic; includes per-cell walls and realized speedup)")
		timeout  = fs.Duration("timeout", 0, "abort the whole suite after this wall time (0 = no limit)")
		parallel = fs.Int("parallel", 0, "scheduler workers for the replay fan-out (0 = GOMAXPROCS, 1 = serial; output is byte-identical for every value)")

		obsDir      = fs.String("obs", "", "observed-suite mode: write per-workload pipeview/events/interval files into this directory and exit")
		obsMode     = fs.String("obs-mode", "Helios", "fusion configuration for -obs runs")
		obsInterval = fs.Uint64("obs-interval", 10000, "interval sampler period in cycles for -obs runs")

		manifestDir  = fs.String("manifest", "", "manifest mode: write one per-run JSON manifest per workload into this directory and exit (input for heliosreport)")
		manifestMode = fs.String("manifest-mode", "Helios", "fusion configuration for -manifest runs")

		traceOut = fs.String("trace", "", "write a Chrome trace-event JSON scheduler timeline to this file (wall-clock data; quarantined from stdout, loadable in Perfetto)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	// -trace attaches a telemetry trace to the context so core.RunCells
	// emits one span per cell on a per-worker lane — with -parallel this
	// is the scheduler utilization timeline. The Chrome JSON goes to its
	// own file, never stdout: span times are wall-clock and must stay
	// out of the deterministic -metrics surface (DESIGN.md §16).
	var suiteTrace *telemetry.Trace
	var tracer *telemetry.Tracer
	if *traceOut != "" {
		tracer = telemetry.New(telemetry.Options{})
		suiteTrace = tracer.StartTrace("experiments")
		ctx = telemetry.WithTrace(ctx, suiteTrace)
		defer func() {
			suiteTrace.Finish()
			f, err := os.Create(*traceOut)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return
			}
			defer f.Close()
			if err := telemetry.WriteChromeTrace(f, tracer.Finished()); err != nil {
				fmt.Fprintln(stderr, err)
			}
		}()
	}

	h := experiments.New(*insts)
	h.Parallel = *parallel
	if *worklist != "" {
		h.Workloads = strings.Split(*worklist, ",")
	}

	if *obsDir != "" {
		return runObserved(ctx, h, stdout, stderr, *obsDir, *obsMode, *obsInterval)
	}

	if *manifestDir != "" {
		m, ok := fusion.ModeByName(*manifestMode)
		if !ok {
			fmt.Fprintf(stderr, "unknown -manifest-mode %q\n", *manifestMode)
			return 1
		}
		if err := h.WriteManifests(ctx, *manifestDir, m); err != nil {
			return fail(stderr, "", err)
		}
		fmt.Fprintf(stdout, "wrote %d manifests (%s) to %s\n", len(h.Workloads), m, *manifestDir)
		return 0
	}

	emit := func(idName string) error {
		tbl, err := h.Run(ctx, idName)
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprintf(stdout, "# %s\n%s\n", idName, tbl.CSV())
		} else {
			fmt.Fprintf(stdout, "%s\n", tbl)
		}
		return nil
	}

	ids := experiments.IDs()
	if *id != "" {
		// One experiment: warm only the cells it reads, fanned across
		// the -parallel workers; the figure then reads the warm cache.
		ids = []string{*id}
		h.Prefetch(ctx, *id)
	} else {
		// Warm the cache before printing everything, fanning
		// workload×mode cells across the scheduler's workers.
		h.Suite.PrefetchN(ctx, h.Workloads, fusion.Modes, *parallel)
	}
	for _, idName := range ids {
		if err := emit(idName); err != nil {
			return fail(stderr, idName+": ", err)
		}
	}
	if *metrics {
		fmt.Fprintf(stdout, "%s\n", h.MetricsTable())
	}
	if *walltime {
		// Wall times are nondeterministic by nature; stderr keeps
		// stdout byte-stable for diffing identical runs.
		fmt.Fprintf(stderr, "%s\n", h.WallTimeTable())
	}
	return 0
}

// fail reports a failed run on stderr, with the crash dump when the
// engine failed, and returns the exit code.
func fail(stderr io.Writer, prefix string, err error) int {
	fmt.Fprintf(stderr, "%s%v\n", prefix, err)
	var se *ooo.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(stderr, "\ncrash dump:\n%s\n", se.JSON())
	}
	return 1
}

// runObserved is the -obs suite mode: one observed replay per workload,
// each producing a Konata-loadable O3PipeView trace, an NDJSON event
// stream and an interval CSV under dir.
func runObserved(ctx context.Context, h *experiments.Harness, stdout, stderr io.Writer, dir, modeName string, interval uint64) int {
	m, ok := fusion.ModeByName(modeName)
	if !ok {
		fmt.Fprintf(stderr, "unknown -obs-mode %q\n", modeName)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	for _, name := range h.Workloads {
		if err := observeOne(ctx, h, stdout, dir, name, m, interval); err != nil {
			return fail(stderr, name+": ", err)
		}
	}
	return 0
}

// observeOne runs a single observed replay, writing the three trace
// files for one workload.
func observeOne(ctx context.Context, h *experiments.Harness, stdout io.Writer, dir, name string, m fusion.Mode, interval uint64) error {
	pv, err := os.Create(filepath.Join(dir, name+".pipeview"))
	if err != nil {
		return err
	}
	evf, err := os.Create(filepath.Join(dir, name+".events.ndjson"))
	if err != nil {
		pv.Close()
		return err
	}
	mf, err := os.Create(filepath.Join(dir, name+".intervals.csv"))
	if err != nil {
		pv.Close()
		evf.Close()
		return err
	}
	ob := &obs.Observer{PipeView: pv, Events: evf, Metrics: mf, SampleEvery: interval}
	r, runErr := h.Observe(ctx, name, m, ob)
	for _, f := range []*os.File{pv, evf, mf} {
		if cerr := f.Close(); cerr != nil && runErr == nil {
			runErr = cerr
		}
	}
	if runErr != nil {
		return runErr
	}
	fmt.Fprintf(stdout, "%-14s %s/%v: %d insts, %d cycles, IPC %.3f\n",
		name, dir, m, r.Stats.CommittedInsts, r.Stats.Cycles, r.Stats.IPC())
	return nil
}
