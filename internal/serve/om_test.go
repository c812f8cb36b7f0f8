package serve

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"helios/internal/telemetry"
	"helios/internal/telemetry/sampling"
)

// TestMetriczOpenMetricsExemplars is the exemplar acceptance check:
// the OpenMetrics exposition carries `# {trace_id=...}` exemplars on
// duration-histogram buckets, passes the OM lint including retention
// consistency (every exemplar's trace resolves in the ring), and the
// deep link round-trips — /tracez?id= serves exactly the trace the
// bucket names.
func TestMetriczOpenMetricsExemplars(t *testing.T) {
	cfg := telemetryConfig()
	cfg.Sampler = sampling.Default(7)
	s, ts := newTestServer(t, cfg)

	// Mixed traffic so multiple bucket families have candidates: two
	// distinct runs (misses with record spans), one repeat (hit), one
	// error.
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "qsort", Mode: "NoFusion"})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Workload: "crc32", Mode: "Helios"})
	postJSONQuiet(ts.URL+"/v1/run", RunRequest{Workload: "no_such_kernel"})

	resp, err := http.Get(ts.URL + "/metricz?format=openmetrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.OpenMetricsContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, telemetry.OpenMetricsContentType)
	}
	text := string(body)
	if !strings.HasSuffix(strings.TrimRight(text, "\n"), "# EOF") {
		t.Error("exposition does not end with # EOF")
	}
	if !strings.Contains(text, "# {trace_id=") {
		t.Fatalf("exposition carries no exemplars:\n%s", text)
	}

	// The full OM lint with the retention-consistency hook wired to the
	// live tracer — a dangling exemplar fails here.
	tel := s.Telemetry()
	opts := telemetry.LintOptions{
		ResolveTrace: func(traceID string) bool {
			id, err := strconv.ParseUint(traceID, 10, 64)
			return err == nil && tel.Retained(id)
		},
	}
	if err := telemetry.LintExpositionOptions(strings.NewReader(text), opts); err != nil {
		t.Fatalf("OpenMetrics lint: %v\n%s", err, text)
	}

	// Round-trip one exemplar through the public deep link.
	i := strings.Index(text, `# {trace_id="`)
	rest := text[i+len(`# {trace_id="`):]
	traceID := rest[:strings.Index(rest, `"`)]
	tresp, err := http.Get(ts.URL + "/tracez?id=" + traceID)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, tresp.Body)
	tresp.Body.Close()
	if tresp.StatusCode != 200 {
		t.Errorf("exemplar deep link /tracez?id=%s: status %d", traceID, tresp.StatusCode)
	}

	// A trace id nothing retains is the taxonomy's typed 404.
	nresp, err := http.Get(ts.URL + "/tracez?id=9999999")
	if err != nil {
		t.Fatal(err)
	}
	nbody, _ := io.ReadAll(nresp.Body)
	nresp.Body.Close()
	if nresp.StatusCode != 404 {
		t.Fatalf("unknown trace id: status %d (%s)", nresp.StatusCode, nbody)
	}
	if e := decodeError(t, nbody); e.Kind != ErrNotFound {
		t.Errorf("unknown trace kind = %s, want %s", e.Kind, ErrNotFound)
	}
}
