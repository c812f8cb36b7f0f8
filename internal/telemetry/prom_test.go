package telemetry_test

import (
	"strings"
	"testing"

	"helios/internal/stats"
	"helios/internal/telemetry"
)

func TestPromWriterPassesOwnLint(t *testing.T) {
	var h stats.Histogram
	for _, v := range []uint64{0, 3, 17, 900, 70000, 1 << 30} {
		h.Observe(v)
	}
	var sb strings.Builder
	p := telemetry.NewOpenMetricsWriter(&sb)
	p.Counter("heliosd_requests_total", "Requests admitted.", 42)
	p.CounterVec("heliosd_requests_rejected_total", "Rejected requests by reason.", []telemetry.LabeledValue{
		{Labels: []telemetry.Label{{Name: "reason", Value: "overload"}}, Value: 7},
		{Labels: []telemetry.Label{{Name: "reason", Value: "draining"}}, Value: 1},
	})
	p.Gauge("heliosd_inflight", "In-flight requests.", 3)
	p.Histogram("heliosd_request_duration_microseconds", "Request latency.", h)
	p.Close()
	if err := p.Err(); err != nil {
		t.Fatalf("PromWriter error: %v", err)
	}
	out := sb.String()
	if err := telemetry.LintExposition(strings.NewReader(out)); err != nil {
		t.Fatalf("own output fails lint: %v\n%s", err, out)
	}
	for _, want := range []string{
		"# TYPE heliosd_requests counter",
		"heliosd_requests_total 42",
		`heliosd_requests_rejected_total{reason="overload"} 7`,
		"# TYPE heliosd_request_duration_microseconds histogram",
		`heliosd_request_duration_microseconds_bucket{le="+Inf"} 6`,
		"heliosd_request_duration_microseconds_count 6",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Fatalf("exposition does not end with # EOF:\n%s", out)
	}
	// The 2^30 sample clamps into the last finite bucket, so the final
	// finite bucket already equals the total count.
	if !strings.Contains(out, `heliosd_request_duration_microseconds_bucket{le="16777215"} 6`) {
		t.Fatalf("clamped tail not in final finite bucket:\n%s", out)
	}
}

func TestPromWriterRefusesSplitFamily(t *testing.T) {
	var sb strings.Builder
	p := telemetry.NewOpenMetricsWriter(&sb)
	p.Counter("a_total", "a", 1)
	p.Counter("b_total", "b", 2)
	p.Counter("a_total", "a again", 3)
	if err := p.Err(); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("Err = %v, want duplicate-family error", err)
	}
}

func TestLintExposition(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want string // substring of the error, "" for pass
	}{
		{"minimal counter", "# HELP a x\n# TYPE a counter\na_total 1\n# EOF\n", ""},
		{"untyped sample", "a_total 1\n# EOF\n", "TYPE"},
		{"bad name", "# TYPE 9bad counter\n9bad_total 1\n# EOF\n", "malformed"},
		{"bad value", "# TYPE a counter\na_total pickle\n# EOF\n", "non-numeric"},
		{"duplicate sample", "# TYPE a counter\na_total 1\na_total 2\n# EOF\n", "duplicate"},
		{"split family", "# TYPE a counter\na_total 1\n# TYPE b counter\nb_total 1\n# HELP a again\n# EOF\n", "grouped"},
		{"double TYPE", "# TYPE a counter\n# TYPE a counter\na_total 1\n# EOF\n", "second TYPE"},
		{
			"histogram ok",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 1` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\n" +
				"h_sum 3\nh_count 2\n# EOF\n",
			"",
		},
		{
			"histogram no inf",
			"# TYPE h histogram\n" + `h_bucket{le="1"} 1` + "\nh_sum 1\nh_count 1\n# EOF\n",
			"+Inf",
		},
		{
			"histogram out of order",
			"# TYPE h histogram\n" +
				`h_bucket{le="5"} 1` + "\n" +
				`h_bucket{le="2"} 2` + "\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 2\n# EOF\n",
			"out of order",
		},
		{
			"histogram not cumulative",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 5` + "\n" +
				`h_bucket{le="2"} 3` + "\n" +
				`h_bucket{le="+Inf"} 5` + "\nh_sum 1\nh_count 5\n# EOF\n",
			"cumulative",
		},
		{
			"histogram count mismatch",
			"# TYPE h histogram\n" +
				`h_bucket{le="+Inf"} 2` + "\nh_sum 1\nh_count 3\n# EOF\n",
			"_count",
		},
		{"empty", "", "empty"},
		{"free comment ok", "# just a comment\n# TYPE a counter\na_total 1\n# EOF\n", ""},
		{"missing EOF", "# TYPE a counter\na_total 1\n", "# EOF"},
		{"content after EOF", "# TYPE a counter\na_total 1\n# EOF\n# TYPE b counter\n", "after # EOF"},
		{
			"exemplar on a bucket",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 1 # {trace_id="7"} 1 1.5` + "\n" +
				`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n# EOF\n",
			"",
		},
		{
			"exemplar outside its bucket",
			"# TYPE h histogram\n" +
				`h_bucket{le="1"} 1 # {trace_id="7"} 5` + "\n" +
				`h_bucket{le="+Inf"} 1` + "\nh_sum 1\nh_count 1\n# EOF\n",
			"outside bucket",
		},
		{"exemplar without trace_id", "# TYPE a counter\na_total 1 # {span=\"x\"} 1\n# EOF\n", "trace_id"},
		{"exemplar on a gauge", "# TYPE g gauge\ng 1 # {trace_id=\"7\"} 1\n# EOF\n", "only _bucket and _total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := telemetry.LintExposition(strings.NewReader(tc.in))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("lint = %v, want pass", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("lint = %v, want error containing %q", err, tc.want)
			}
		})
	}
}
