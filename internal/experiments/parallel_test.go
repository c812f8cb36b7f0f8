package experiments

import (
	"context"
	"fmt"
	"testing"
)

// TestParallelMatchesSerial is the scheduler's end-to-end determinism
// gate: a fully parallel RunAll must render every figure and table —
// and the deterministic `-metrics` surface — byte-identical to a serial
// run. The CI race job runs this under -race, so it also serves as the
// data-race probe for the fan-out path.
func TestParallelMatchesSerial(t *testing.T) {
	run := func(workers int) (map[string]string, string) {
		h := New(20_000)
		h.Workloads = []string{"crc32", "sha", "xz"}
		h.Parallel = workers
		tbls, err := h.RunAll(context.Background())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		rendered := make(map[string]string, len(tbls))
		for id, tbl := range tbls {
			rendered[id] = tbl.String()
		}
		return rendered, h.MetricsTable().String()
	}

	serial, serialMetrics := run(1)
	parallel, parallelMetrics := run(8)

	for _, id := range IDs() {
		if parallel[id] != serial[id] {
			t.Errorf("%s: parallel output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				id, serial[id], parallel[id])
		}
	}
	if parallelMetrics != serialMetrics {
		t.Errorf("-metrics surface differs:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serialMetrics, parallelMetrics)
	}

	// The wall-time table is nondeterministic by nature, but its shape is
	// not: a parallel run must report the fan-out rows.
	h := New(20_000)
	h.Workloads = []string{"crc32"}
	h.Parallel = 4
	if _, err := h.RunAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	wt := h.WallTimeTable()
	found := false
	for i := 0; i < wt.NumRows(); i++ {
		if wt.Row(i)[0] == "realized speedup" {
			found = true
		}
	}
	if !found {
		t.Errorf("WallTimeTable misses the realized-speedup row:\n%s", wt)
	}
}

// TestPrefetchMatchesCellsRead pins cellModes to the figures: for every
// experiment, a lone Prefetch must warm exactly the cells a cold Run
// reads (no more, so `-id X -metrics` is unchanged by prefetching; no
// fewer, so the figure never falls back to serial replays), and the Run
// that follows it must render the same table and counters.
func TestPrefetchMatchesCellsRead(t *testing.T) {
	ctx := context.Background()
	for _, id := range IDs() {
		t.Run(id, func(t *testing.T) {
			newHarness := func() *Harness {
				h := New(3_000)
				h.Workloads = []string{"crc32", "bitcount"}
				h.Parallel = 2
				return h
			}
			cold := newHarness()
			coldTbl, err := cold.Run(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			warm := newHarness()
			warm.Prefetch(ctx, id)
			if got, want := fmt.Sprint(warm.Suite.CacheSnapshot()), fmt.Sprint(cold.Suite.CacheSnapshot()); got != want {
				t.Fatalf("prefetch warmed %s, the figure reads %s", got, want)
			}
			warmTbl, err := warm.Run(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if warmTbl.String() != coldTbl.String() {
				t.Errorf("prefetched table differs:\n--- cold ---\n%s\n--- prefetched ---\n%s", coldTbl, warmTbl)
			}
			if got, want := warm.MetricsTable().String(), cold.MetricsTable().String(); got != want {
				t.Errorf("prefetched -metrics differs:\n--- cold ---\n%s\n--- prefetched ---\n%s", want, got)
			}
		})
	}
}
