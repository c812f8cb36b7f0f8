// Command heliossim runs one workload on the cycle-level core model under
// a chosen fusion configuration and prints the detailed statistics.
//
// Usage:
//
//	heliossim -workload xz -mode Helios [-insts 350000]
//	heliossim -workload xz -trace-out xz.trace.gz   # record the stream
//	heliossim -trace-in xz.trace.gz -compare        # replay it per config
//	heliossim -workload xz -timeout 30s             # bound the wall time
//	heliossim -workload crc32 -pipeview crc32.pv    # Konata-loadable trace
//	heliossim -workload crc32 -interval-metrics m.csv -interval 1000
//	heliossim -list
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	_ "net/http/pprof" // -pprof serves the default mux
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/report"
	"helios/internal/stats"
	"helios/internal/trace"
	"helios/internal/workloads"
)

func main() {
	var (
		workload = flag.String("workload", "crc32", "workload name (see -list)")
		mode     = flag.String("mode", "Helios", "fusion configuration: "+modeNames())
		insts    = flag.Uint64("insts", 0, "instruction budget (0 = workload default)")
		list     = flag.Bool("list", false, "list workloads and exit")
		compare  = flag.Bool("compare", false, "run every fusion configuration and compare IPC")
		parallel = flag.Int("parallel", 0, "-compare workers (0 = GOMAXPROCS, 1 = serial; the table is byte-identical for every value)")
		traceOut = flag.String("trace-out", "", "record the committed stream to this file (gzip-framed binary)")
		traceIn  = flag.String("trace-in", "", "simulate a previously recorded stream instead of emulating")
		timeout  = flag.Duration("timeout", 0, "abort the whole run after this wall time (0 = no limit)")
		jsonOut  = flag.Bool("json", false, "dump the full statistics as JSON instead of the human-readable report")
		manifest = flag.String("manifest", "", "write a per-run JSON manifest (config + stats + build identity) to this file")

		pipeview    = flag.String("pipeview", "", "write a gem5 O3PipeView pipeline trace (Konata-loadable) to this file")
		events      = flag.String("events", "", "write per-µop NDJSON pipeline events to this file")
		intervalCSV = flag.String("interval-metrics", "", "write the interval metrics time series (CSV) to this file")
		interval    = flag.Uint64("interval", 10000, "interval sampler period in cycles (with -interval-metrics)")

		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060) for host-side profiling")
		cpuprofile = flag.String("cpuprofile", "", "write a pprof CPU profile of the simulator itself to this file")
	)
	flag.Parse()

	if *pprofAddr != "" {
		//helios:goroutinelife-ok process-lifetime pprof listener; dies with the process
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof server: %v\n", err)
			}
		}()
		fmt.Printf("pprof: http://%s/debug/pprof/\n", *pprofAddr)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *list {
		for _, w := range workloads.All() {
			fmt.Printf("%-14s %-10d %s\n", w.Name, w.MaxInsts, w.PaperRef)
		}
		return
	}

	// Phase one: obtain the committed stream — load it from a trace file,
	// or record it once from the emulator when it will be reused (compare
	// mode or -trace-out).
	var (
		rec  *trace.Recording
		name string
		w    workloads.Workload
	)
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			fatal(err)
		}
		rec, err = trace.ReadFrom(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		name = rec.Name
		fmt.Printf("loaded trace: %s (%d µ-ops, budget %d)\n\n", rec.Name, rec.Len(), rec.MaxInsts)
	} else {
		var ok bool
		w, ok = workloads.ByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q; try -list\n", *workload)
			os.Exit(1)
		}
		name = w.Name
		if *compare || *traceOut != "" {
			var err error
			rec, err = w.Record(*insts)
			if err != nil {
				fatal(err)
			}
		}
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		n, err := rec.WriteTo(f)
		if err == nil {
			err = f.Close()
		}
		if err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s: %d µ-ops, %d bytes compressed\n\n", *traceOut, rec.Len(), n)
	}

	// Observability sinks (single-run mode only: one run, one trace).
	obsOn := *pipeview != "" || *events != "" || *intervalCSV != ""
	if obsOn && *compare {
		fmt.Fprintln(os.Stderr, "-pipeview/-events/-interval-metrics apply to a single run; drop -compare")
		os.Exit(1)
	}

	// Phase two: replay through the cycle-level model.
	if *compare {
		runCompare(ctx, name, rec, *parallel)
		return
	}
	m, ok := fusion.ModeByName(*mode)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q; want one of %s\n", *mode, modeNames())
		os.Exit(1)
	}
	cfg := ooo.DefaultConfig(m)
	var (
		ob      *obs.Observer
		closers []func() error
	)
	if obsOn {
		ob = &obs.Observer{SampleEvery: *interval}
		// Each trace file is buffered: the observer writes one record
		// per µ-op, which unbuffered would be one write(2) each.
		open := func(path string) *bufio.Writer {
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			bw := bufio.NewWriter(f)
			closers = append(closers, bw.Flush, f.Close)
			return bw
		}
		if *pipeview != "" {
			ob.PipeView = open(*pipeview)
		}
		if *events != "" {
			ob.Events = open(*events)
		}
		if *intervalCSV != "" {
			ob.Metrics = open(*intervalCSV)
		}
		cfg.Obs = ob
	}
	var (
		r   *core.Result
		err error
	)
	if rec != nil {
		r, err = core.RunSource(ctx, name, cfg, rec.Replay(), 0)
	} else {
		r, err = core.RunConfig(ctx, w, cfg, *insts)
	}
	// Flush and close the trace files before any exit, so a failed run
	// still leaves the records written up to the failure.
	for _, c := range closers {
		if cerr := c(); cerr != nil {
			fmt.Fprintf(os.Stderr, "closing trace output: %v\n", cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if ob != nil {
		if oerr := ob.Err(); oerr != nil {
			fatal(fmt.Errorf("observer: %w", oerr))
		}
	}
	if *manifest != "" {
		m := report.NewManifest(r.Workload, r.Mode, cfg, r.Stats)
		if err := m.WriteFile(*manifest); err != nil {
			fatal(err)
		}
	}
	if *jsonOut {
		printJSON(r)
		return
	}
	printResult(r)
}

// printJSON dumps the complete statistics surface: every Stats counter
// (the reflection round-trip test in internal/ooo pins the field set)
// plus the run identity and the binary's build provenance. The stats
// are deterministic for a given trace and configuration, so two runs of
// the same build can be diffed byte-for-byte.
func printJSON(r *core.Result) {
	out := struct {
		Workload string           `json:"workload"`
		Mode     string           `json:"mode"`
		Build    report.BuildInfo `json:"build"`
		Stats    ooo.Stats        `json:"stats"`
	}{r.Workload, r.Mode.String(), report.Build(), r.Stats}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", b)
}

// fatal prints the error and exits. If the failure is a structured
// pipeline crash, the full JSON dump (cycle, queue occupancies, recent
// commits, invariant verdict) follows the one-line summary so the state
// at the point of death is preserved for post-mortem.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	var se *ooo.SimError
	if errors.As(err, &se) {
		fmt.Fprintf(os.Stderr, "\ncrash dump:\n%s\n", se.JSON())
	}
	os.Exit(1)
}

func modeNames() string {
	names := make([]string, len(fusion.Modes))
	for i, m := range fusion.Modes {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// runCompare replays the one recording through every fusion
// configuration, fanning the replays across a bounded worker pool
// (replay cursors are independent, so the runs cannot interfere). The
// results are collected by mode index and the table is built serially
// in fusion.Modes order afterwards — including the NoFusion IPC
// baseline — so the output is byte-identical to a serial run.
func runCompare(ctx context.Context, name string, rec *trace.Recording, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fusion.Modes) {
		workers = len(fusion.Modes)
	}
	results := make([]*core.Result, len(fusion.Modes))
	errs := make([]error, len(fusion.Modes))
	var cursor atomic.Int64
	cursor.Store(-1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1))
				if i >= len(fusion.Modes) || ctx.Err() != nil {
					return
				}
				m := fusion.Modes[i]
				results[i], errs[i] = core.RunSource(ctx, name, ooo.DefaultConfig(m), rec.Replay(), 0)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			fatal(err)
		}
	}
	var base float64
	for i, m := range fusion.Modes {
		if m == fusion.ModeNoFusion {
			base = results[i].Stats.IPC()
		}
	}
	t := stats.NewTable(fmt.Sprintf("%s: fusion configuration comparison", name),
		"config", "IPC", "vs NoFusion", "csf", "ncsf", "idioms", "mispredicts")
	for i, m := range fusion.Modes {
		s := results[i].Stats
		t.AddRow(m.String(), stats.F(s.IPC(), 3), stats.F(s.IPC()/base, 3),
			fmt.Sprint(s.CSFPairs()), fmt.Sprint(s.NCSFPairs()),
			fmt.Sprint(s.FusedIdiom+s.FusedMemIdiom), fmt.Sprint(s.FusionMispredicts))
	}
	fmt.Print(t)
}

func printResult(r *core.Result) {
	s := r.Stats
	fmt.Printf("workload:   %s\nconfig:     %v\n\n", r.Workload, r.Mode)
	fmt.Printf("cycles:             %d\n", s.Cycles)
	fmt.Printf("instructions:       %d (%d µ-ops, %d memory)\n",
		s.CommittedInsts, s.CommittedUops, s.CommittedMem)
	fmt.Printf("IPC:                %.3f\n\n", s.IPC())

	fmt.Printf("fused idioms:       %d non-memory, %d memory-carrying\n", s.FusedIdiom, s.FusedMemIdiom)
	fmt.Printf("fused pairs:        %d CSF (%d ld / %d st), %d NCSF (%d ld / %d st)\n",
		s.CSFPairs(), s.CSFLoadPairs, s.CSFStorePairs,
		s.NCSFPairs(), s.NCSFLoadPairs, s.NCSFStorePairs)
	fmt.Printf("pair attributes:    %d DBR, %d asymmetric, mean NCSF distance %.1f\n",
		s.DBRPairs, s.AsymmetricPairs, s.MeanNCSFDistance())
	fmt.Printf("unfused at rename:  %d (window/serial/store/dbr/deadlock = %v)\n\n",
		s.UnfusedAtRename, s.UnfuseReasons)

	fmt.Printf("fusion predictor:   %d predictions, %d mispredicts (accuracy %.2f%%, coverage %.2f%%, MPKI %.4f)\n",
		s.FusionPredictions, s.FusionMispredicts, 100*s.Accuracy(), 100*s.Coverage(), s.FusionMPKI())
	fmt.Printf("branches:           %d (%d mispredicted, MPKI %.2f)\n",
		s.Branches, s.BranchMispredicts, s.BranchMPKI())
	fmt.Printf("memory:             %d forwards, %d violations, %d flushes\n\n",
		s.STLForwards, s.StoreSetViolations, s.Flushes)

	cyc := float64(s.Cycles)
	fmt.Printf("structural stalls:  regs %.1f%%, rob %.1f%%, iq %.1f%%, lq %.1f%%, sq %.1f%%, aq %.1f%%\n",
		100*float64(s.StallFreeList)/cyc, 100*float64(s.StallROB)/cyc,
		100*float64(s.StallIQ)/cyc, 100*float64(s.StallLQ)/cyc,
		100*float64(s.StallSQ)/cyc, 100*float64(s.StallAQ)/cyc)

	if budget := s.TopDown.SlotBudget(); budget > 0 {
		td := &s.TopDown
		p := func(v uint64) float64 { return 100 * float64(v) / float64(budget) }
		fmt.Printf("top-down slots:     retiring %.1f%% (+%.1f%% fused), fe-lat %.1f%%, fe-bw %.1f%%, bad-spec %.1f%%, be-core %.1f%%, be-mem %.1f%%\n",
			p(td.Retiring), p(td.FusedRetiring), p(td.FrontendLatency),
			p(td.FrontendBandwidth), p(td.BadSpeculation), p(td.BackendCore),
			p(td.BackendMemory()))
	}
}
