package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/serve"
)

// BenchmarkServeRun times heliosd requests end to end: one op is one
// POST /v1/run round trip to an in-process server with the default
// config behind a loopback httptest listener.
//
//   - hit: the same request every op, answered from the result cache.
//   - miss: a machine config no op has used before, so every op misses
//     the result cache and replays; the workload's recording is made
//     before the timer starts, so the op is the miss path plus replay.
//   - obs: an observed replay returning an inline pipeview artifact.
//
// It uses the exported API only, so the file runs unchanged against
// earlier revisions of the package for same-host comparisons.
func BenchmarkServeRun(b *testing.B) {
	cfg := serve.DefaultConfig()
	cfg.DefaultInsts = 5_000
	s := serve.New(context.Background(), cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	hit := serve.RunRequest{Workload: "crc32", Mode: fusion.ModeHelios.String()}
	benchPost(b, ts.URL, hit) // records crc32 and caches this result

	b.Run("hit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rr := benchPost(b, ts.URL, hit); !rr.Cached {
				b.Fatal("hit request was not served from the cache")
			}
		}
	})

	misses := 0 // across b.Run's calls, so every op gets a new config
	b.Run("miss", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := ooo.DefaultConfig(fusion.ModeHelios)
			c.ROBSize -= 1 + misses%64
			c.IQSize -= (misses / 64) % 32
			c.LQSize -= (misses / 2048) % 32
			misses++
			if rr := benchPost(b, ts.URL, serve.RunRequest{Workload: "crc32", Config: &c}); rr.Cached {
				b.Fatal("miss request was served from the cache")
			}
		}
	})

	obs := serve.RunRequest{Workload: "crc32", Mode: fusion.ModeHelios.String(), Obs: "pipeview"}
	b.Run("obs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if rr := benchPost(b, ts.URL, obs); rr.Artifact == nil || rr.Artifact.Bytes == 0 {
				b.Fatal("obs request returned no artifact")
			}
		}
	})
}

// benchPost sends one run request and decodes its 200 reply.
func benchPost(b *testing.B, url string, req serve.RunRequest) serve.RunResponse {
	b.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		b.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	var rr serve.RunResponse
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		b.Fatal(err)
	}
	return rr
}
