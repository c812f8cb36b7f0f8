package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"helios/internal/fusion"
	"helios/internal/ooo"
)

// testConfig keeps unit-test servers fast and deterministic: tiny
// budgets, generous deadline.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.DefaultInsts = 5_000
	cfg.DefaultDeadline = 30 * time.Second
	return cfg
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	return newHookedServer(t, cfg, nil)
}

// newHookedServer is newTestServer with a miss hook installed before
// the server takes traffic.
func newHookedServer(t *testing.T, cfg Config, hook func(ctx context.Context)) (*Server, *httptest.Server) {
	t.Helper()
	s := New(context.Background(), cfg)
	s.missHook = hook
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// newHeldServer is a test server whose cache misses park inside their
// admission slots until release is called (or their context ends).
// release is idempotent and also runs at cleanup, before the listener
// closes.
func newHeldServer(t *testing.T, cfg Config) (s *Server, ts *httptest.Server, release func()) {
	t.Helper()
	held := make(chan struct{})
	s, ts = newHookedServer(t, cfg, func(ctx context.Context) {
		select {
		case <-held:
		case <-ctx.Done():
		}
	})
	var once sync.Once
	release = func() { once.Do(func() { close(held) }) }
	t.Cleanup(release)
	return s, ts, release
}

// waitInflight polls until n requests hold admission slots.
func waitInflight(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.healthSnapshot().Inflight < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d in-flight request(s)", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, out.Bytes()
}

// postJSONQuiet is postJSON for goroutines, where t.Fatal is illegal:
// failures come back as errors.
func postJSONQuiet(url string, body any) (int, []byte, error) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(resp.Body); err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, out.Bytes(), nil
}

func decodeRun(t *testing.T, b []byte) RunResponse {
	t.Helper()
	var rr RunResponse
	if err := json.Unmarshal(b, &rr); err != nil {
		t.Fatalf("bad RunResponse %s: %v", b, err)
	}
	return rr
}

func decodeError(t *testing.T, b []byte) Error {
	t.Helper()
	var e Error
	if err := json.Unmarshal(b, &e); err != nil {
		t.Fatalf("bad Error body %s: %v", b, err)
	}
	if e.Kind == "" {
		t.Fatalf("error body has no kind: %s", b)
	}
	return e
}

// TestRunCachedAndCoalesced pins the content-addressed cache contract:
// the first request computes, an identical repeat is a pure hit with
// the same key, and a different budget is a different key.
func TestRunCachedAndCoalesced(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	req := RunRequest{Workload: "crc32", Mode: "Helios"}

	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	first := decodeRun(t, body)
	if first.Cached || first.Key == "" || first.IPC <= 0 {
		t.Fatalf("first run: cached=%v key=%q ipc=%v", first.Cached, first.Key, first.IPC)
	}
	if first.Engine == "" || !strings.HasPrefix(first.Engine, "helios-engine/") {
		t.Errorf("engine identity missing: %q", first.Engine)
	}

	_, body = postJSON(t, ts.URL+"/v1/run", req)
	second := decodeRun(t, body)
	if !second.Cached || second.Key != first.Key {
		t.Errorf("repeat was not a cache hit: cached=%v key match=%v", second.Cached, second.Key == first.Key)
	}
	if second.Stats.Cycles != first.Stats.Cycles {
		t.Error("cache hit returned different stats")
	}

	_, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios", Insts: 2_000})
	other := decodeRun(t, body)
	if other.Cached || other.Key == first.Key {
		t.Error("different budget shared a content key")
	}
}

// TestRunCountsOneTraceLookup: a /v1/run miss looks its recording up
// once. A cold miss is one trace miss and no trace hit, a repeat is a
// result-cache hit that touches no recording, and a custom machine on
// the recorded workload is exactly one trace hit.
func TestRunCountsOneTraceLookup(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	run := func(req RunRequest) RunResponse {
		t.Helper()
		resp, body := postJSON(t, ts.URL+"/v1/run", req)
		if resp.StatusCode != 200 {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
		return decodeRun(t, body)
	}
	check := func(when string, misses, hits, runs uint64) {
		t.Helper()
		m := s.Suite().Metrics()
		if m.TraceMisses != misses || m.TraceHits != hits || m.PipelineRuns != runs {
			t.Errorf("%s: TraceMisses=%d TraceHits=%d PipelineRuns=%d, want %d/%d/%d",
				when, m.TraceMisses, m.TraceHits, m.PipelineRuns, misses, hits, runs)
		}
	}
	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	run(req)
	check("cold miss", 1, 0, 1)
	if !run(req).Cached {
		t.Error("repeat was not a cache hit")
	}
	check("repeat", 1, 0, 1)
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.ROBSize = 64
	if run(RunRequest{Workload: "crc32", Config: &cfg}).Cached {
		t.Error("custom machine was served from the cache")
	}
	check("custom miss on a recorded workload", 1, 1, 2)
}

// TestRunAfterSuiteIsCached pins the one result cache at the service
// boundary: a /v1/run for a default-machine key that /v1/suite has just
// computed is a cache hit with the suite's numbers, and runs no
// pipeline.
func TestRunAfterSuiteIsCached(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/suite", SuiteRequest{Workloads: []string{"crc32"}, Modes: []string{"Helios"}})
	if resp.StatusCode != 200 {
		t.Fatalf("suite: status %d: %s", resp.StatusCode, body)
	}
	var sr SuiteResponse
	if err := json.Unmarshal(body, &sr); err != nil || len(sr.Cells) != 1 {
		t.Fatalf("suite response %s: %v", body, err)
	}
	runs := s.Suite().Metrics().PipelineRuns

	resp, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	if resp.StatusCode != 200 {
		t.Fatalf("run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if !rr.Cached {
		t.Error("run after suite of the same key was not a cache hit")
	}
	if rr.Stats.Cycles != sr.Cells[0].Cycles {
		t.Errorf("run cycles %d != suite cell cycles %d", rr.Stats.Cycles, sr.Cells[0].Cycles)
	}
	if got := s.Suite().Metrics().PipelineRuns; got != runs {
		t.Errorf("PipelineRuns moved %d -> %d on a cached key", runs, got)
	}
}

// TestRunCustomConfig: a custom machine gets its own content key, and
// a config change changes the key.
func TestRunCustomConfig(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.FetchWidth = 1
	cfg.DecodeWidth = 1
	cfg.RenameWidth = 1
	cfg.DispatchWidth = 1
	cfg.CommitWidth = 1
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &cfg})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	narrow := decodeRun(t, body)

	wide := ooo.DefaultConfig(fusion.ModeHelios)
	_, body = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Config: &wide})
	def := decodeRun(t, body)
	if narrow.Key == def.Key {
		t.Error("different machine configs shared a content key")
	}
	if narrow.Stats.Cycles <= def.Stats.Cycles {
		t.Errorf("1-wide machine (%d cycles) should be slower than the 8-wide default (%d cycles)",
			narrow.Stats.Cycles, def.Stats.Cycles)
	}
}

// TestHostileRequests drives the input-validation taxonomy: malformed
// JSON, trailing garbage, unknown fields, unknown workload/mode, an
// oversized body and a conflicting mode/config pair — every one a typed
// 4xx, never a 500.
func TestHostileRequests(t *testing.T) {
	cfg := testConfig()
	cfg.MaxBodyBytes = 4 << 10
	_, ts := newTestServer(t, cfg)

	cases := []struct {
		name   string
		body   string
		status int
		kind   ErrKind
	}{
		{"malformed", `{"workload": crc32}`, 400, ErrBadRequest},
		{"trailing", `{"workload":"crc32"} garbage`, 400, ErrBadRequest},
		{"unknown-field", `{"workload":"crc32","wat":1}`, 400, ErrBadRequest},
		{"unknown-workload", `{"workload":"nope"}`, 400, ErrBadRequest},
		{"unknown-mode", `{"workload":"crc32","mode":"Turbo"}`, 400, ErrBadRequest},
		{"oversized", `{"workload":"` + strings.Repeat("a", 8<<10) + `"}`, 413, ErrOversized},
		{"empty", ``, 400, ErrBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.ReadFrom(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, buf.Bytes())
			}
			if e := decodeError(t, buf.Bytes()); e.Kind != tc.kind {
				t.Errorf("kind = %s, want %s", e.Kind, tc.kind)
			}
		})
	}
}

// TestAdmissionOverload holds QueueDepth slots open (the first
// requests' misses park inside their admission slots) and checks the
// next request bounces with a typed 429 carrying both retry-after forms.
func TestAdmissionOverload(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	cfg.RetryAfter = 1500 * time.Millisecond
	s, ts, release := newHeldServer(t, cfg)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct modes: distinct content keys, so both miss.
			postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: fusion.Modes[i].String()})
		}(i)
	}
	waitInflight(t, s, 2)

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "sha", Mode: "Helios"})
	if resp.StatusCode != 429 {
		t.Fatalf("status = %d, want 429 (%s)", resp.StatusCode, body)
	}
	e := decodeError(t, body)
	if e.Kind != ErrOverload || e.RetryAfterMs != 1500 {
		t.Errorf("overload error = %+v, want kind=overload retry_after_ms=1500", e)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "2" {
		t.Errorf("Retry-After header = %q, want %q (1500ms rounded up)", ra, "2")
	}
	release()
	wg.Wait()
	if got := s.MaxInflight(); got > 2 {
		t.Errorf("max inflight = %d, exceeded QueueDepth 2", got)
	}
	if c := s.Counters(); c.RejectedOverload != 1 {
		t.Errorf("RejectedOverload = %d, want 1", c.RejectedOverload)
	}
}

// TestDeadlinePropagation: a 1ms deadline with the run parked past it
// must come back as a typed 504, and the partial work must not poison
// the cache — a later request with a sane deadline succeeds.
func TestDeadlinePropagation(t *testing.T) {
	_, ts, release := newHeldServer(t, testConfig())

	req := RunRequest{Workload: "crc32", Mode: "Helios", DeadlineMs: 1}
	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 504 {
		t.Fatalf("status = %d, want 504 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != ErrDeadline {
		t.Errorf("kind = %s, want %s", e.Kind, ErrDeadline)
	}

	release()
	req.DeadlineMs = 30_000
	resp, body = postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != 200 {
		t.Fatalf("deadline failure was cached: retry got %d (%s)", resp.StatusCode, body)
	}
}

// TestConcurrentMissesShareOneRecording fires every fusion mode plus
// several distinct custom machines for one workload at once, all
// released together from the start of their misses: they must share one
// record phase (TraceMisses == 1), each on its own request goroutine,
// and every one must succeed.
func TestConcurrentMissesShareOneRecording(t *testing.T) {
	var reqs []RunRequest
	for _, m := range fusion.Modes {
		reqs = append(reqs, RunRequest{Workload: "crc32", Mode: m.String()})
	}
	for i := 0; i < 4; i++ {
		c := ooo.DefaultConfig(fusion.ModeHelios)
		c.ROBSize -= 1 + i
		reqs = append(reqs, RunRequest{Workload: "crc32", Config: &c})
	}

	var arrived sync.WaitGroup
	arrived.Add(len(reqs))
	start := make(chan struct{})
	s, ts := newHookedServer(t, testConfig(), func(context.Context) {
		arrived.Done()
		<-start
	})
	var wg sync.WaitGroup
	for _, req := range reqs {
		wg.Add(1)
		go func(req RunRequest) {
			defer wg.Done()
			status, body, err := postJSONQuiet(ts.URL+"/v1/run", req)
			if err != nil || status != 200 {
				t.Errorf("%s %s: status %d err %v: %s", req.Mode, req.Workload, status, err, body)
			}
		}(req)
	}
	arrived.Wait()
	close(start)
	wg.Wait()

	if m := s.Suite().Metrics(); m.TraceMisses != 1 {
		t.Errorf("TraceMisses = %d, want 1 (%d concurrent misses must share one record phase)", m.TraceMisses, len(reqs))
	}
}

// TestSuiteEndpoint: a 2×2 matrix comes back in request order with
// consistent per-cell results.
func TestSuiteEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/suite", SuiteRequest{
		Workloads: []string{"crc32", "sha"},
		Modes:     []string{"NoFusion", "Helios"},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SuiteResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	want := []string{"crc32/NoFusion", "crc32/Helios", "sha/NoFusion", "sha/Helios"}
	if len(sr.Cells) != len(want) {
		t.Fatalf("cells = %d, want %d", len(sr.Cells), len(want))
	}
	for i, c := range sr.Cells {
		if got := c.Workload + "/" + c.Mode; got != want[i] {
			t.Errorf("cell %d = %s, want %s (request order)", i, got, want[i])
		}
		if c.Error != nil || c.IPC <= 0 || c.Cycles == 0 {
			t.Errorf("cell %d incomplete: %+v", i, c)
		}
	}
}

// TestDiffEndpoint: the differential report renders and carries the
// expected markers.
func TestDiffEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/diff", DiffRequest{
		Workloads:    []string{"crc32"},
		BaselineMode: "NoFusion",
		TargetMode:   "Helios",
	})
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var dr DiffResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(dr.Markdown, "crc32") || !strings.Contains(dr.Markdown, "IPC") {
		t.Errorf("markdown report missing expected content:\n%.400s", dr.Markdown)
	}
	if !strings.Contains(dr.CSV, "crc32") {
		t.Error("csv report missing workload row")
	}
}

// TestDrain pins the drain contract: in-flight work finishes, new work
// is refused with a typed 503, readyz flips to draining, and Drain
// returns nil within the deadline.
func TestDrain(t *testing.T) {
	s, ts, release := newHeldServer(t, testConfig())

	type result struct {
		status int
		body   []byte
	}
	inflight := make(chan result, 1)
	go func() {
		status, body, err := postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
		if err != nil {
			body = []byte(err.Error())
		}
		inflight <- result{status, body}
	}()
	waitInflight(t, s, 1)

	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(dctx) }()
	select {
	case err := <-drained:
		t.Fatalf("drain returned (%v) with a request still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-drained; err != nil {
		t.Fatalf("drain failed: %v", err)
	}
	r := <-inflight
	if r.status != 200 {
		t.Fatalf("in-flight request was not drained cleanly: %d (%s)", r.status, r.body)
	}

	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "sha"})
	if resp.StatusCode != 503 {
		t.Fatalf("post-drain status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Kind != ErrDraining {
		t.Errorf("kind = %s, want %s", e.Kind, ErrDraining)
	}
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != 503 {
		t.Errorf("readyz while draining = %d, want 503", rresp.StatusCode)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Errorf("healthz while draining = %d, want 200 (draining is alive)", hresp.StatusCode)
	}
}

// TestDrainDeadlineExpires: a request that outlives the drain window
// surfaces as a drain error naming the stragglers.
func TestDrainDeadlineExpires(t *testing.T) {
	s, ts, _ := newHeldServer(t, testConfig())

	go postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	waitInflight(t, s, 1)
	dctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := s.Drain(dctx)
	if err == nil || !strings.Contains(err.Error(), "in flight") {
		t.Fatalf("drain err = %v, want deadline error naming in-flight count", err)
	}
}

// TestMetricz spot-checks the telemetry surface.
func TestMetricz(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})

	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Server Counters `json:"server"`
		Cache  struct {
			Entries int    `json:"entries"`
			Hits    uint64 `json:"hits"`
			Misses  uint64 `json:"misses"`
		} `json:"cache"`
		LatencyUs struct {
			Count uint64 `json:"count"`
		} `json:"latency_us"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Server.Admitted != 2 || m.Server.Completed != 2 {
		t.Errorf("admitted/completed = %d/%d, want 2/2", m.Server.Admitted, m.Server.Completed)
	}
	if m.Cache.Entries != 1 || m.Cache.Hits != 1 || m.Cache.Misses != 1 {
		t.Errorf("cache = %+v, want 1 entry, 1 hit, 1 miss", m.Cache)
	}
	if m.LatencyUs.Count != 2 {
		t.Errorf("latency count = %d, want 2", m.LatencyUs.Count)
	}
}

// TestResultKeySensitivity: the content address must move with every
// input axis and be stable for identical inputs.
func TestResultKeySensitivity(t *testing.T) {
	base := ooo.DefaultConfig(fusion.ModeHelios)
	k0, err := resultKey("crc32", base, 1000, "e1")
	if err != nil {
		t.Fatal(err)
	}
	if k1, _ := resultKey("crc32", base, 1000, "e1"); k1 != k0 {
		t.Error("identical inputs produced different keys")
	}
	variants := map[string]func() (string, error){
		"workload": func() (string, error) { return resultKey("sha", base, 1000, "e1") },
		"budget":   func() (string, error) { return resultKey("crc32", base, 2000, "e1") },
		"engine":   func() (string, error) { return resultKey("crc32", base, 1000, "e2") },
		"config": func() (string, error) {
			c := base
			c.ROBSize = 64
			return resultKey("crc32", c, 1000, "e1")
		},
		"mode": func() (string, error) {
			return resultKey("crc32", ooo.DefaultConfig(fusion.ModeNoFusion), 1000, "e1")
		},
	}
	for axis, fn := range variants {
		k, err := fn()
		if err != nil {
			t.Fatal(err)
		}
		if k == k0 {
			t.Errorf("changing %s did not change the content key", axis)
		}
	}
}

// TestPanicIsolation: a handler panic becomes a structured 500, the
// server keeps serving, and the recovery is counted.
func TestPanicIsolation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, testConfig())
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.HandleFunc("POST /boom", s.api(func(ctx context.Context, r *http.Request) (any, *Error) {
		panic("stage exploded")
	}))
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/boom", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 {
		t.Fatalf("status = %d, want 500", resp.StatusCode)
	}
	if e := decodeError(t, buf.Bytes()); e.Kind != ErrInternal {
		t.Errorf("kind = %s, want %s", e.Kind, ErrInternal)
	}
	if c := s.Counters(); c.PanicsRecovered != 1 {
		t.Errorf("PanicsRecovered = %d, want 1", c.PanicsRecovered)
	}
	// Still serving.
	resp2, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32"})
	if resp2.StatusCode != 200 {
		t.Fatalf("server did not survive the panic: %d (%s)", resp2.StatusCode, body)
	}
}

// TestManifestPerRequest: completed runs land one manifest each in the
// manifest directory, loadable by the report package's reader rules.
func TestManifestPerRequest(t *testing.T) {
	cfg := testConfig()
	cfg.ManifestDir = t.TempDir()
	s, ts := newTestServer(t, cfg)

	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "NoFusion"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"}) // cache hit: no new manifest

	if c := s.Counters(); c.ManifestsWritten != 2 || c.ManifestErrors != 0 {
		t.Errorf("manifests written/errors = %d/%d, want 2/0", c.ManifestsWritten, c.ManifestErrors)
	}
}

// TestWorkloadsEndpoint sanity-checks the discovery surface.
func TestWorkloadsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/v1/workloads")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rows []struct {
		Name  string `json:"name"`
		Insts uint64 `json:"insts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no workloads listed")
	}
	seen := false
	for _, r := range rows {
		if r.Name == "crc32" && r.Insts > 0 {
			seen = true
		}
	}
	if !seen {
		t.Errorf("crc32 missing from %v", rows)
	}
}
