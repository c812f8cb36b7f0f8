package serve

import (
	"io"
	"net/http"
	"testing"
)

// TestNegotiateMetrics pins the documented /metricz format rule: an
// explicit ?format= of json or openmetrics wins outright and any other
// value — the retired prometheus and text included — is a typed 400;
// otherwise an Accept header listing application/openmetrics-text with
// a non-zero q gets OpenMetrics, and everything else gets JSON.
func TestNegotiateMetrics(t *testing.T) {
	cases := []struct {
		name, format, accept string
		wantOM               bool
		wantErr              bool
	}{
		{"no header defaults to json", "", "", false, false},
		{"format json", "json", "", false, false},
		{"format prometheus", "prometheus", "", false, true},
		{"format text alias", "text", "", false, true},
		{"format openmetrics", "openmetrics", "", true, false},
		{"format overrides accept", "json", "application/openmetrics-text", false, false},
		{"unknown format is a typed 400", "promtheus", "", false, true},

		{"curl default */*", "", "*/*", false, false},
		{"exact text/plain", "", "text/plain", false, false},
		{"exact openmetrics", "", "application/openmetrics-text", true, false},
		{"exact json", "", "application/json", false, false},
		{"text wildcard", "", "text/*", false, false},
		{"application wildcard", "", "application/*", false, false},

		{"prometheus scrape header", "", "application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.3", true, false},

		{"q=0 excludes the type", "", "application/openmetrics-text;q=0", false, false},
		{"all offers at q=0 fall back to json", "", "text/plain;q=0, application/openmetrics-text;q=0", false, false},
		{"malformed q ignores the element", "", "application/openmetrics-text;q=banana", false, false},
		{"malformed element does not poison the rest", "", "application/openmetrics-text;q=banana, application/openmetrics-text", true, false},
		{"unknown types are ignored", "", "application/xml, image/png", false, false},
		{"whitespace and case tolerated", "", " APPLICATION/OpenMetrics-Text ; q=0.7 , application/json;q=0.2", true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			om, err := negotiateMetrics(tc.format, tc.accept)
			if (err != nil) != tc.wantErr {
				t.Fatalf("negotiateMetrics(%q, %q) err = %v, wantErr %t", tc.format, tc.accept, err, tc.wantErr)
			}
			if err != nil {
				if err.Kind != ErrBadRequest {
					t.Fatalf("error kind = %s, want %s", err.Kind, ErrBadRequest)
				}
				return
			}
			if om != tc.wantOM {
				t.Errorf("negotiateMetrics(%q, %q) openmetrics = %t, want %t", tc.format, tc.accept, om, tc.wantOM)
			}
		})
	}
}

// TestMetriczUnknownFormatTyped drives the unknown-format rule through
// the HTTP surface, for a misspelling and for the retired 0.0.4 format:
// the response must be the taxonomy's typed 400, not a silent fallback
// exposition a scraper would misparse.
func TestMetriczUnknownFormatTyped(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for _, format := range []string{"promtheus", "prometheus"} {
		resp, err := http.Get(ts.URL + "/metricz?format=" + format)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Fatalf("format=%s: status = %d, want 400 (%s)", format, resp.StatusCode, body)
		}
		if e := decodeError(t, body); e.Kind != ErrBadRequest {
			t.Errorf("format=%s: kind = %s, want %s", format, e.Kind, ErrBadRequest)
		}
	}
}
