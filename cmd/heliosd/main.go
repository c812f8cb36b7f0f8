// Command heliosd serves the simulation engine as a long-running
// HTTP+JSON service with a robustness-first envelope: content-addressed
// result caching, misses that share each workload's record phase, a
// bounded admission queue with typed 429s, per-request deadlines,
// panic isolation, graceful degradation of corrupt cached recordings,
// and a clean SIGTERM drain.
//
// Usage:
//
//	heliosd -addr :8080
//	heliosd -addr :8080 -queue 32 -deadline 15s -max-deadline 1m
//	heliosd -addr :8080 -manifest-dir /var/lib/helios/manifests
//	heliosd -addr :8080 -sample -cache-dir /var/lib/helios/cache
//
// Endpoints:
//
//	POST /v1/run           one workload×config simulation (obs field → artifact)
//	POST /v1/suite         a workload×mode matrix
//	POST /v1/diff          a rendered differential report
//	GET  /v1/workloads     the registered workload catalogue
//	GET  /healthz /readyz  liveness and readiness
//	GET  /metricz          JSON or OpenMetrics (exemplars)
//	GET  /tracez           retained traces (?id= for one — the exemplar deep link)
//	GET  /debugz/requests  the flight recorder (heliosctl triage reads this)
//
// On SIGTERM/SIGINT the server stops admitting work (503 draining),
// finishes every in-flight request within -drain, flushes manifests,
// and exits 0. A second signal aborts immediately with exit 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"helios/internal/core"
	"helios/internal/serve"
	"helios/internal/telemetry/sampling"
)

func main() {
	def := serve.DefaultConfig()
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		queue       = flag.Int("queue", def.QueueDepth, "admission queue depth (concurrent requests before typed 429s)")
		deadline    = flag.Duration("deadline", def.DefaultDeadline, "default per-request deadline when the client sends none")
		maxDeadline = flag.Duration("max-deadline", def.MaxDeadline, "clamp on client-supplied deadlines")
		drain       = flag.Duration("drain", 30*time.Second, "graceful-drain budget after SIGTERM")
		maxBody     = flag.Int64("max-body", def.MaxBodyBytes, "request body byte limit (typed 413 beyond)")
		insts       = flag.Uint64("insts", 0, "default instruction budget (0 = each workload's own)")
		workers     = flag.Int("workers", 0, "suite-endpoint scheduler workers (0 = GOMAXPROCS)")
		manifestDir = flag.String("manifest-dir", "", "write a JSON manifest per completed run into this directory")
		retryAfter  = flag.Duration("retry-after", def.RetryAfter, "backoff hint attached to overload/draining rejections")

		telemetry   = flag.Bool("telemetry", true, "per-request span tracing (GET /tracez, span histograms on /metricz); off, every hook is a zero-allocation no-op")
		traceRing   = flag.Int("trace-ring", 0, "finished traces retained for GET /tracez (0 = default)")
		traceDir    = flag.String("trace-dir", "", "write one Chrome trace-event JSON file per finished request into this directory")
		artifactDir = flag.String("artifact-dir", "", "write /v1/run obs artifacts as files here instead of inline base64")
		spanLog     = flag.String("span-log", "", "append the NDJSON span stream to this file")

		cacheDir   = flag.String("cache-dir", "", "warm the result cache from this manifest directory at boot, and write completed runs back into it")
		flightSize = flag.Int("flight", serve.DefaultFlightSize, "flight-recorder capacity (recent request summaries on GET /debugz/requests)")

		sample        = flag.Bool("sample", false, "tail-based trace sampling: keep errors, tail-latency outliers, rare spans and a rate-limited healthy budget instead of every trace")
		sampleSeed    = flag.Uint64("sample-seed", 1, "seed for the deterministic probabilistic floor")
		sampleFloor   = flag.Float64("sample-floor", 0.01, "fraction of all traces the probabilistic floor keeps regardless of other policies")
		sampleRate    = flag.Float64("sample-rate", 25, "healthy-traffic retention budget, traces per second")
		sampleBurst   = flag.Int("sample-burst", 50, "healthy-traffic retention burst")
		sampleSlowPct = flag.Int("sample-slow-pct", 99, "adaptive latency percentile; slower traces are kept as tail outliers")
	)
	flag.Parse()
	cfg := serve.Config{
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RetryAfter:      *retryAfter,
		MaxBodyBytes:    *maxBody,
		DefaultInsts:    *insts,
		SuiteWorkers:    *workers,
		ManifestDir:     *manifestDir,
		Telemetry:       *telemetry,
		TraceRing:       *traceRing,
		TraceDir:        *traceDir,
		ArtifactDir:     *artifactDir,
		CacheDir:        *cacheDir,
		FlightSize:      *flightSize,
		Logf:            logf,
	}
	if *sample {
		// The explicit chain mirrors sampling.Default but exposes the
		// floor/rate/percentile knobs; the policy algebra is documented in
		// DESIGN.md §17.
		cfg.Sampler = sampling.NewChain(
			sampling.Errors(),
			sampling.SlowTail(*sampleSlowPct, 64),
			sampling.SpanBoost(sampling.PrioSpan, "record"),
			sampling.Limit(sampling.All(), *sampleRate, *sampleBurst),
			sampling.Floor(*sampleFloor, *sampleSeed),
		)
	}
	if *spanLog != "" {
		f, err := os.OpenFile(*spanLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heliosd: span log:", err)
			os.Exit(1)
		}
		defer f.Close()
		cfg.SpanLog = f
	}
	if err := run(*addr, *drain, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "heliosd:", err)
		os.Exit(1)
	}
}

func logf(format string, args ...any) {
	//helios:nondeterminism-ok operational log timestamps, not simulation state
	fmt.Fprintf(os.Stderr, time.Now().UTC().Format("2006-01-02T15:04:05.000Z")+" "+format+"\n", args...)
}

func run(addr string, drainBudget time.Duration, cfg serve.Config) error {
	for _, d := range []struct{ name, path string }{
		{"manifest dir", cfg.ManifestDir},
		{"trace dir", cfg.TraceDir},
		{"artifact dir", cfg.ArtifactDir},
		{"cache dir", cfg.CacheDir},
	} {
		if d.path == "" {
			continue
		}
		if err := os.MkdirAll(d.path, 0o755); err != nil {
			return fmt.Errorf("%s: %w", d.name, err)
		}
	}

	// Cancelled on the first SIGTERM/SIGINT. In-flight requests run under
	// their own contexts, so they carry on into the drain window.
	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	s := serve.New(context.Background(), cfg)
	httpSrv := &http.Server{Addr: addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logf("heliosd %s listening on %s (queue=%d deadline=%s)",
		core.EngineVersion(), addr, cfg.QueueDepth, cfg.DefaultDeadline)

	select {
	case err := <-errc:
		return fmt.Errorf("listen on %s: %w", addr, err)
	case <-sigCtx.Done():
	}
	stop() // restore default signal behaviour: a second signal kills us

	logf("signal received; draining (budget %s)", drainBudget)
	dctx, dcancel := context.WithTimeout(context.Background(), drainBudget)
	defer dcancel()
	drainErr := s.Drain(dctx)
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logf("http shutdown: %v", err)
	}
	if drainErr != nil {
		return fmt.Errorf("drain: %w", drainErr)
	}
	c := s.Counters()
	logf("drained clean: %d admitted, %d completed, %d manifests; exiting 0",
		c.Admitted, c.Completed, c.ManifestsWritten)
	return nil
}
