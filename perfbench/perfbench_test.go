package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"helios/internal/core"
	"helios/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden.json from the current program")

// tinyInsts is the simulated size the tests run every workload at.
const tinyInsts = 3000

func tiny(seed int64, trace bool) params {
	return params{Seed: seed, Seconds: 0.2, Trace: trace, Insts: tinyInsts}
}

func mustGoldens(t *testing.T) *goldens {
	t.Helper()
	g, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// detail lists the metrics each workload prints on its detail line,
// untraced and traced: the ones only that workload has.
var detail = map[string][2][]string{
	"fig10-cold": {
		nil,
		{"ooo.replay_s.NoFusion", "ooo.replay_s.RISCVFusion", "ooo.replay_s.CSF-SBR",
			"ooo.replay_s.RISCVFusionPP", "ooo.replay_s.Helios", "ooo.replay_s.OracleFusion",
			"ooo.ns_per_cycle.NoFusion", "ooo.ns_per_cycle.RISCVFusion", "ooo.ns_per_cycle.CSF-SBR",
			"ooo.ns_per_cycle.RISCVFusionPP", "ooo.ns_per_cycle.Helios", "ooo.ns_per_cycle.OracleFusion",
			"ooo.sim_cycles.NoFusion", "ooo.sim_cycles.RISCVFusion", "ooo.sim_cycles.CSF-SBR",
			"ooo.sim_cycles.RISCVFusionPP", "ooo.sim_cycles.Helios", "ooo.sim_cycles.OracleFusion",
			"core.realized_x", "experiments.table_ms"},
	},
	"serve-mix": {
		{"serve_rps", "hit_p50_ms", "hit_p90_ms", "miss_p50_ms", "miss_p90_ms", "obs_p50_ms"},
		{"serve.handler_hit_us", "serve.transport_hit_us", "serve.hit_resp_bytes", "telemetry.hit_overhead_us",
			"core.replay_config_ms", "serve.miss_overhead_ms", "serve.obs_encode_ms", "serve.cache_hit_ratio",
			"core.deduped_runs"},
	},
	"obs-replay": {
		nil,
		{"obs.pipeview_s", "obs.events_s", "obs.interval_s",
			"obs.pipeview_mb", "obs.events_mb", "obs.allocs_per_uop"},
	},
}

// TestMetricsEmitted runs every workload untraced and traced at a tiny
// size and checks each is correct and prints every metric BENCHMARK.json
// names, in its unit, and its own detail metrics besides.
func TestMetricsEmitted(t *testing.T) {
	g := mustGoldens(t)
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	if want := sortedKeys(workloadFuncs); !reflect.DeepEqual(names, want) {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark runs %v", names, want)
	}
	for traced, declared := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
		units := map[string]string{}
		var manifest []string
		for _, m := range declared {
			units[m.Name] = m.Unit
			manifest = append(manifest, m.Name)
		}
		if want := [][]string{endToEnd, perLayer}[traced]; !reflect.DeepEqual(manifest, want) {
			t.Fatalf("trace=%d: BENCHMARK.json names %v, the benchmark reports %v", traced, manifest, want)
		}
		for _, name := range names {
			res, err := workloadFuncs[name](context.Background(), tiny(1, traced == 1), g, spansIf(traced == 1))
			if err != nil {
				t.Fatalf("%s trace=%d: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", name, traced, res.Correct, res.Attempted, res.Failed)
			}
			extra, err := split(res, manifest)
			if err != nil {
				t.Errorf("%s trace=%d: %v", name, traced, err)
				continue
			}
			for k, m := range res.Metrics {
				if m.Unit != units[k] {
					t.Errorf("%s trace=%d: metric %s unit %q, BENCHMARK.json says %q", name, traced, k, m.Unit, units[k])
				}
			}
			want := append([]string(nil), detail[name][traced]...)
			sort.Strings(want)
			if got := sortedKeys(extra); !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%d: detail metrics %v, want %v", name, traced, got, want)
			}
		}
	}
}

func spansIf(on bool) *spans {
	if on {
		return newSpans()
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestCorruptGoldenFails checks that an output differing from its
// reference is counted as a failed operation, never silently passed.
func TestCorruptGoldenFails(t *testing.T) {
	ctx := context.Background()
	key := budgetKey(tinyInsts)

	g := mustGoldens(t)
	fg := g.Fig10[key]
	cycles := map[string]uint64{}
	for k, v := range fg.Cycles {
		cycles[k] = v
	}
	cycles["xz/Helios"]++
	g.Fig10[key] = fig10Golden{Table: fg.Table, Cycles: cycles}
	if res, err := runFig10(ctx, tiny(1, false), g, nil); err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("fig10-cold with a corrupted cycle count: err=%v result=%+v", err, res)
	}
	g.Fig10[key] = fig10Golden{Table: flip(fg.Table), Cycles: fg.Cycles}
	if res, err := runFig10(ctx, tiny(1, false), g, nil); err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("fig10-cold with a corrupted table digest: err=%v result=%+v", err, res)
	}

	g = mustGoldens(t)
	digests := map[string]string{}
	for k, v := range g.Obs[key] {
		digests[k] = v
	}
	digests["mcf/Helios/events"] = flip(digests["mcf/Helios/events"])
	g.Obs[key] = digests
	if res, err := runObsReplay(ctx, tiny(1, false), g, nil); err != nil || res.Correct || res.Failed == 0 {
		t.Errorf("obs-replay with a corrupted digest: err=%v result=%+v", err, res)
	}

	// serve-mix checks replies against direct Suite runs; a reply whose
	// stats were altered in transit must fail.
	svc := newService(true)
	defer svc.close()
	if err := svc.warm(tinyInsts); err != nil {
		t.Fatal(err)
	}
	replies, _ := svc.closedLoop(newMixGen(1, tinyInsts).next, time.Now().Add(time.Minute), 2*mixBlock, nil)
	for _, k := range []reqKind{kindHit, kindMiss, kindObs} {
		tampered := append([]reply(nil), replies...)
		for i := range tampered {
			if tampered[i].spec.kind == k {
				tampered[i].stats = flip(tampered[i].stats)
				break
			}
		}
		res := &result{}
		if err := verify(ctx, core.NewSuite(tinyInsts), tinyInsts, tampered, res); err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed != 1 || res.Attempted != len(replies) {
			t.Errorf("serve-mix with one tampered %s reply: %+v", kindNames[k], res)
		}
	}
}

// flip returns the hex digest d with its first digit changed.
func flip(d string) string {
	if d[0] == '0' {
		return "1" + d[1:]
	}
	return "0" + d[1:]
}

// TestSeedsAgree checks that the seed changes only the order of work,
// never a simulated result.
func TestSeedsAgree(t *testing.T) {
	ctx := context.Background()
	a, err := coldFig10(ctx, tinyInsts, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := coldFig10(ctx, tinyInsts, rand.New(rand.NewSource(2)))
	if err != nil {
		t.Fatal(err)
	}
	if a.table != b.table || !reflect.DeepEqual(a.cycles, b.cycles) {
		t.Error("fig10-cold: seeds 1 and 2 simulated different results")
	}

	g := mustGoldens(t)
	var digests [2]map[string]string
	for i, seed := range []int64{1, 2} {
		digests[i] = obsDigests(t, seed)
		if res, err := runObsReplay(ctx, tiny(seed, false), g, nil); err != nil || !res.Correct {
			t.Errorf("obs-replay seed %d: err=%v result=%+v", seed, err, res)
		}
	}
	if !reflect.DeepEqual(digests[0], digests[1]) {
		t.Error("obs-replay: seeds 1 and 2 produced different streams")
	}

	var hits [2]map[string]string
	for i, seed := range []int64{1, 2} {
		svc := newService(true)
		if err := svc.warm(tinyInsts); err != nil {
			t.Fatal(err)
		}
		replies, _ := svc.closedLoop(newMixGen(seed, tinyInsts).next, time.Now().Add(time.Minute), mixBlock, nil)
		svc.close()
		hits[i] = map[string]string{}
		for _, r := range replies {
			if r.spec.kind == kindHit {
				hits[i][r.spec.run.Workload] = r.stats
			}
		}
	}
	for w, d := range hits[0] {
		if d2, ok := hits[1][w]; ok && d2 != d {
			t.Errorf("serve-mix: %s hit stats differ between seeds", w)
		}
	}
}

// obsDigests replays the obs-replay cells in a seeded order and returns
// every stream's digest.
func obsDigests(t *testing.T, seed int64) map[string]string {
	t.Helper()
	ctx := context.Background()
	suite := core.NewSuite(tinyInsts)
	cells := obsCells()
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
	out := map[string]string{}
	for _, c := range cells {
		ob, ws := observer()
		if _, err := suite.ObserveReplay(ctx, c.workload, c.mode, ob); err != nil {
			t.Fatal(err)
		}
		for s, w := range ws {
			out[c.key(s)] = w.sum()
		}
	}
	return out
}

// TestGolden checks the tiny-size goldens against the program; with
// -update it regenerates golden.json at every size the benchmark runs.
func TestGolden(t *testing.T) {
	ctx := context.Background()
	fig10Sizes, obsSizes := []uint64{tinyInsts}, []uint64{tinyInsts}
	if *update {
		fig10Sizes, obsSizes = []uint64{0, tinyInsts}, []uint64{obsInsts, tinyInsts}
	}
	g := &goldens{Fig10: map[string]fig10Golden{}, Obs: map[string]map[string]string{}}
	for _, n := range fig10Sizes {
		out, err := coldFig10(ctx, n, rand.New(rand.NewSource(1)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(out.table))
		g.Fig10[budgetKey(n)] = fig10Golden{Table: hex.EncodeToString(sum[:]), Cycles: out.cycles}
		if len(out.cycles) != len(workloads.Names())*6 {
			t.Fatalf("fig10 at %d insts: %d cells", n, len(out.cycles))
		}
	}
	for _, n := range obsSizes {
		suite := core.NewSuite(n)
		g.Obs[budgetKey(n)] = map[string]string{}
		for _, c := range obsCells() {
			ob, ws := observer()
			if _, err := suite.ObserveReplay(ctx, c.workload, c.mode, ob); err != nil {
				t.Fatal(err)
			}
			for s, w := range ws {
				g.Obs[budgetKey(n)][c.key(s)] = w.sum()
			}
		}
	}
	if *update {
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	have := mustGoldens(t)
	key := budgetKey(tinyInsts)
	if !reflect.DeepEqual(have.Fig10[key], g.Fig10[key]) || !reflect.DeepEqual(have.Obs[key], g.Obs[key]) {
		t.Error("golden.json disagrees with the program at the test size")
	}
}
