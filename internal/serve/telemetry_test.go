package serve

import (
	"context"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
	"helios/internal/telemetry"
)

// telemetryConfig is testConfig with span tracing on.
func telemetryConfig() Config {
	cfg := testConfig()
	cfg.Telemetry = true
	return cfg
}

// TestServeTelemetryOffNoAllocs pins the disabled-path contract at the
// service layer, mirroring ooo's TestCommitObsOffNoAllocs: with
// Config.Telemetry false the tracer is a nil pointer and the complete
// span hook sequence of one cache miss — trace start, admission span,
// context threading, the cache_read, record and replay spans, outcome
// attrs, finish — allocates nothing.
func TestServeTelemetryOffNoAllocs(t *testing.T) {
	s := New(context.Background(), testConfig())
	if s.Telemetry() != nil {
		t.Fatal("telemetry should be disabled in testConfig")
	}
	ctx := context.Background()
	allocs := testing.AllocsPerRun(200, func() {
		tr := s.tel.StartTrace("POST /v1/run")
		adm := tr.Start("admission")
		adm.SetInt("inflight", 3)
		adm.End()
		hctx := telemetry.WithTrace(ctx, tr)
		tr2 := telemetry.FromContext(hctx)
		tr2.SetAttr("workload", "crc32")
		rd := tr2.Start("cache_read")
		rd.SetAttr("hit", "false")
		rd.SetBool("coalesced", false)
		rd.End()
		rec := tr2.Start("record")
		rec.SetBool("err", false)
		rec.End()
		rep := tr2.Start("replay")
		rep.SetBool("custom", false)
		rep.SetBool("err", false)
		rep.End()
		tr.SetAttr("outcome", "ok")
		s.finishTrace(tr)
	})
	if allocs != 0 {
		t.Errorf("disabled telemetry request path allocated %.1f times per run, want 0", allocs)
	}
}

// TestServeTraceLifecycle drives real traffic through a telemetry-on
// server and checks the recorded traces against the structural
// contract: every trace validates (in-bounds, laminar per lane), spans
// sum consistently with the measured wall time, the expected request
// phases are present, and the span ledger balances.
func TestServeTraceLifecycle(t *testing.T) {
	s, ts := newTestServer(t, telemetryConfig())

	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != 200 {
		t.Fatalf("uncached run: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", req); resp.StatusCode != 200 {
		t.Fatalf("cached run: status %d", resp.StatusCode)
	}
	if resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "no-such"}); resp.StatusCode != 400 {
		t.Fatalf("bad workload: status %d", resp.StatusCode)
	}

	tel := s.Telemetry()
	if err := tel.Balance(); err != nil {
		t.Fatal(err)
	}
	traces := tel.Finished()
	if len(traces) != 3 {
		t.Fatalf("got %d finished traces, want 3", len(traces))
	}
	for _, ti := range traces {
		if err := ti.Validate(); err != nil {
			t.Errorf("trace %d: %v", ti.ID, err)
		}
		if sum := ti.TopLevelSumUS(0); sum > ti.DurUS {
			t.Errorf("trace %d: top-level span sum %dµs exceeds trace duration %dµs", ti.ID, sum, ti.DurUS)
		}
	}

	// The uncached run's trace carries the full phase ledger.
	first := traces[0]
	want := map[string]bool{"admission": false, "cache_read": false,
		"record": false, "replay": false}
	for _, sp := range first.Spans {
		if _, ok := want[sp.Name]; ok {
			want[sp.Name] = true
		}
		if sp.Unended {
			t.Errorf("span %q never ended", sp.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("uncached run trace lacks a %q span", name)
		}
	}
	if v := attrValue(first.Attrs, "outcome"); v != "ok" {
		t.Errorf("trace outcome = %q, want ok", v)
	}
	if v := attrValue(first.Attrs, "workload"); v != "crc32" {
		t.Errorf("trace workload = %q, want crc32", v)
	}

	// The cached run read the cache and never simulated.
	second := traces[1]
	for _, sp := range second.Spans {
		if sp.Name == "record" || sp.Name == "replay" {
			t.Errorf("cached run trace has a %q span", sp.Name)
		}
	}
	if v := attrValue(second.Attrs, "cached"); v != "true" {
		t.Errorf("cached run cached attr = %q, want true", v)
	}

	// The rejected-validation run still traced, with the error outcome.
	third := traces[2]
	if v := attrValue(third.Attrs, "outcome"); v != string(ErrBadRequest) {
		t.Errorf("bad-request trace outcome = %q, want %q", v, ErrBadRequest)
	}
}

func attrValue(attrs []telemetry.Attr, key string) string {
	for _, a := range attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// TestTracezEndpoint checks that GET /tracez serves the retained ring
// as loadable Chrome trace-event JSON, and that it 400s with telemetry
// off.
func TestTracezEndpoint(t *testing.T) {
	s, ts := newTestServer(t, telemetryConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})

	resp, err := http.Get(ts.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("tracez status %d", resp.StatusCode)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("tracez is not valid JSON: %v", err)
	}
	var spans int
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Error("tracez has no complete (X) span events")
	}
	_ = s

	// Telemetry off: a typed 400, not an empty document.
	_, tsOff := newTestServer(t, testConfig())
	respOff, err := http.Get(tsOff.URL + "/tracez")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, respOff.Body)
	respOff.Body.Close()
	if respOff.StatusCode != 400 {
		t.Errorf("tracez with telemetry off: status %d, want 400", respOff.StatusCode)
	}
}

// TestRunObsArtifact checks the per-request obs plumbing: the inline
// base64 artifact decodes to exactly the bytes a direct observed replay
// of the same (workload, config, budget) produces — the determinism
// contract that makes server artifacts interchangeable with local
// heliossim output.
func TestRunObsArtifact(t *testing.T) {
	_, ts := newTestServer(t, telemetryConfig())

	resp, body := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Workload: "crc32", Mode: "Helios", Obs: "pipeview"})
	if resp.StatusCode != 200 {
		t.Fatalf("obs run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Artifact == nil {
		t.Fatal("obs run returned no artifact")
	}
	if rr.Artifact.Kind != "pipeview" || rr.Artifact.Encoding != "base64" {
		t.Fatalf("artifact = %+v, want inline pipeview", rr.Artifact)
	}
	got, err := base64.StdEncoding.DecodeString(rr.Artifact.Data)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(got)
	if hex.EncodeToString(sum[:]) != rr.Artifact.SHA256 {
		t.Error("artifact SHA256 does not match payload")
	}

	// Reference run: same workload/config/budget through a fresh suite.
	var ref strings.Builder
	suite := core.NewSuite(testConfig().DefaultInsts)
	_, err = suite.ObserveReplayConfig(context.Background(), "crc32",
		ooo.DefaultConfig(mustMode(t, "Helios")), 0, &obs.Observer{PipeView: &ref})
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != ref.String() {
		t.Errorf("server pipeview (%d bytes) differs from direct observed replay (%d bytes)",
			len(got), ref.Len())
	}

	// Unknown kinds are typed 400s.
	resp, _ = postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Obs: "flamegraph"})
	if resp.StatusCode != 400 {
		t.Errorf("unknown obs kind: status %d, want 400", resp.StatusCode)
	}
}

// TestRunObsArtifactDir checks the file-encoding path: with ArtifactDir
// set the payload lands on disk and the response carries the path plus
// the digest of the file's bytes.
func TestRunObsArtifactDir(t *testing.T) {
	cfg := telemetryConfig()
	cfg.ArtifactDir = t.TempDir()
	_, ts := newTestServer(t, cfg)

	resp, body := postJSON(t, ts.URL+"/v1/run",
		RunRequest{Workload: "crc32", Mode: "Helios", Obs: "interval", ObsInterval: 500})
	if resp.StatusCode != 200 {
		t.Fatalf("obs run: status %d: %s", resp.StatusCode, body)
	}
	rr := decodeRun(t, body)
	if rr.Artifact == nil || rr.Artifact.Encoding != "file" || rr.Artifact.Path == "" {
		t.Fatalf("artifact = %+v, want file encoding with a path", rr.Artifact)
	}
	data, err := os.ReadFile(rr.Artifact.Path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:]) != rr.Artifact.SHA256 {
		t.Error("artifact file digest does not match response SHA256")
	}
	if len(data) != rr.Artifact.Bytes {
		t.Errorf("artifact file is %d bytes, response says %d", len(data), rr.Artifact.Bytes)
	}
	if !strings.HasPrefix(string(data), "cycle,") {
		t.Errorf("interval CSV does not start with its header: %q", firstLine(data))
	}
}

func firstLine(b []byte) string {
	if i := strings.IndexByte(string(b), '\n'); i >= 0 {
		return string(b[:i])
	}
	return string(b)
}

// TestMetriczContentNegotiation checks both /metricz renderings: the
// JSON document keeps its shape (with the histogram summary and, with
// telemetry on, span summaries), and the OpenMetrics form passes the
// repo's own exposition linter with the expected families present.
func TestMetriczContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, telemetryConfig())
	req := RunRequest{Workload: "crc32", Mode: "Helios"}
	postJSON(t, ts.URL+"/v1/run", req)
	postJSON(t, ts.URL+"/v1/run", req)

	// Default: JSON with the HistSummary latency shape.
	resp, err := http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var doc struct {
		LatencyUs HistSummary            `json:"latency_us"`
		Spans     map[string]HistSummary `json:"spans"`
		Tracing   *telemetry.Metrics     `json:"tracing"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metricz JSON: %v", err)
	}
	if doc.LatencyUs.Count != 2 {
		t.Errorf("latency count = %d, want 2", doc.LatencyUs.Count)
	}
	if doc.LatencyUs.P99 < doc.LatencyUs.P50 {
		t.Errorf("P99 %d < P50 %d", doc.LatencyUs.P99, doc.LatencyUs.P50)
	}
	if doc.Tracing == nil || doc.Tracing.TracesFinished != 2 {
		t.Errorf("tracing block = %+v, want 2 finished traces", doc.Tracing)
	}
	if _, ok := doc.Spans["admission"]; !ok {
		t.Errorf("spans block lacks admission summary: %v", doc.Spans)
	}

	// OpenMetrics negotiation via query param and via Accept header.
	for _, u := range []string{ts.URL + "/metricz?format=openmetrics", ts.URL + "/metricz"} {
		preq, _ := http.NewRequest("GET", u, nil)
		preq.Header.Set("Accept", "application/openmetrics-text")
		presp, err := http.DefaultClient.Do(preq)
		if err != nil {
			t.Fatal(err)
		}
		pbody, _ := io.ReadAll(presp.Body)
		presp.Body.Close()
		if ct := presp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
			t.Fatalf("openmetrics Content-Type = %q", ct)
		}
		if err := telemetry.LintExposition(strings.NewReader(string(pbody))); err != nil {
			t.Fatalf("exposition lint: %v\n%s", err, pbody)
		}
		for _, fam := range []string{
			"heliosd_requests_admitted_total",
			"heliosd_request_duration_microseconds_bucket",
			"heliosd_span_duration_microseconds_bucket",
			"heliosd_spans_started_total",
		} {
			if !strings.Contains(string(pbody), fam) {
				t.Errorf("exposition lacks %s", fam)
			}
		}
	}

	// format=json forces JSON even under an OpenMetrics Accept header.
	jreq, _ := http.NewRequest("GET", ts.URL+"/metricz?format=json", nil)
	jreq.Header.Set("Accept", "application/openmetrics-text")
	jresp, err := http.DefaultClient.Do(jreq)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, jresp.Body)
	jresp.Body.Close()
	if ct := jresp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type = %q", ct)
	}
}

// TestMetriczPromDisabledTelemetry: the exposition stays lintable with
// telemetry off — the span families are simply absent.
func TestMetriczPromDisabledTelemetry(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	resp, err := http.Get(ts.URL + "/metricz?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err := telemetry.LintExposition(strings.NewReader(string(body))); err != nil {
		t.Fatalf("exposition lint: %v", err)
	}
	if strings.Contains(string(body), "heliosd_span_duration") {
		t.Error("telemetry-off exposition advertises span histograms")
	}
}

// TestTraceDirExport: with TraceDir set every finished request trace
// lands as its own Chrome trace file.
func TestTraceDirExport(t *testing.T) {
	cfg := telemetryConfig()
	cfg.TraceDir = t.TempDir()
	_, ts := newTestServer(t, cfg)
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})

	entries, err := os.ReadDir(cfg.TraceDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("TraceDir has %d files, want 1", len(entries))
	}
	b, err := os.ReadFile(cfg.TraceDir + "/" + entries[0].Name())
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("exported trace is not JSON: %v", err)
	}
	if _, ok := doc["traceEvents"]; !ok {
		t.Error("exported trace lacks traceEvents")
	}
}

func mustMode(t *testing.T, name string) fusion.Mode {
	t.Helper()
	m, ok := fusion.ModeByName(name)
	if !ok {
		t.Fatalf("unknown mode %q", name)
	}
	return m
}
