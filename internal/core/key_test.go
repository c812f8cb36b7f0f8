package core

import (
	"context"
	"strings"
	"testing"

	"helios/internal/flight"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
)

// TestGetBudgetKeysResultsByBudget pins the cache-key contract: results
// are keyed by (workload, budget, machine config), so two budgets for
// the same workload/mode are distinct entries and a budget change can
// never be served from a stale result.
func TestGetBudgetKeysResultsByBudget(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(0)

	small, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	large, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 8_000)
	if err != nil {
		t.Fatal(err)
	}
	if small.Stats.CommittedInsts == large.Stats.CommittedInsts {
		t.Fatalf("budgets 2000 and 8000 committed the same instruction count (%d): stale result served",
			small.Stats.CommittedInsts)
	}
	again, err := s.GetBudget(ctx, "crc32", fusion.ModeNoFusion, 2_000)
	if err != nil {
		t.Fatal(err)
	}
	if again != small {
		t.Error("identical budget did not hit the cache")
	}

	snap := s.CacheSnapshot()
	want := []string{"crc32/NoFusion@2000", "crc32/NoFusion@8000"}
	for i, k := range want {
		if snap[i] != k {
			t.Errorf("CacheSnapshot[%d] = %q, want %q", i, snap[i], k)
		}
	}
}

// TestSuiteResultKeysByConfig pins the one result cache: Result keys on
// the whole machine config (not its observer), the default-machine Get
// path shares its entries, and SeedResult fills the same cache without
// overwriting a computed result.
func TestSuiteResultKeysByConfig(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(2_000)
	narrow := ooo.DefaultConfig(fusion.ModeHelios)
	narrow.ROBSize = 32

	a, how, err := s.Result(ctx, "crc32", narrow, 0)
	if err != nil || how != flight.Run {
		t.Fatalf("first Result: outcome %v, err %v; want a run", how, err)
	}
	narrow.Obs = &obs.Observer{}
	if b, how, _ := s.Result(ctx, "crc32", narrow, 0); b != a || how != flight.Hit {
		t.Errorf("same machine with an observer attached: outcome %v, same result %t; want a hit", how, b == a)
	}
	def, _, err := s.Result(ctx, "crc32", ooo.DefaultConfig(fusion.ModeHelios), 0)
	if err != nil || def == a {
		t.Fatalf("default machine shared the narrow machine's entry (err %v)", err)
	}
	if g, err := s.Get(ctx, "crc32", fusion.ModeHelios); err != nil || g != def {
		t.Errorf("Get did not read Result's default-machine entry (err %v)", err)
	}
	if runs := s.Metrics().PipelineRuns; runs != 2 {
		t.Errorf("PipelineRuns = %d, want 2", runs)
	}

	seeded := &Result{Workload: "crc32", Mode: fusion.ModeNoFusion}
	if !s.SeedResult("crc32", ooo.DefaultConfig(fusion.ModeNoFusion), 2_000, seeded) {
		t.Fatal("SeedResult refused a new key")
	}
	if g, err := s.Get(ctx, "crc32", fusion.ModeNoFusion); err != nil || g != seeded {
		t.Errorf("Get did not serve the seeded result (err %v)", err)
	}
	if s.SeedResult("crc32", ooo.DefaultConfig(fusion.ModeHelios), 2_000, seeded) {
		t.Error("SeedResult overwrote a computed result")
	}

	want := []string{"crc32/Helios@2000", "crc32/Helios@2000+custom", "crc32/NoFusion@2000"}
	if got := s.CacheSnapshot(); len(got) != len(want) || s.CacheLen() != len(want) {
		t.Fatalf("CacheSnapshot = %q (CacheLen %d), want %q", got, s.CacheLen(), want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("CacheSnapshot[%d] = %q, want %q", i, got[i], want[i])
			}
		}
	}
}

// TestSuiteResultHitNoAllocs pins the hit path's cost: a warm Result
// hit with no trace attached allocates nothing.
func TestSuiteResultHitNoAllocs(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(2_000)
	cfg := ooo.DefaultConfig(fusion.ModeHelios)
	cfg.ROBSize = 64
	if _, _, err := s.Result(ctx, "crc32", cfg, 0); err != nil {
		t.Fatal(err)
	}
	hits := 0
	allocs := testing.AllocsPerRun(200, func() {
		if _, how, err := s.Result(ctx, "crc32", cfg, 0); err == nil && how == flight.Hit {
			hits++
		}
	})
	if hits == 0 {
		t.Fatal("warm Result was not a cache hit")
	}
	if allocs != 0 {
		t.Errorf("warm Result hit allocated %.1f times per call, want 0", allocs)
	}
}

// TestSuiteBudgetChangeNeverStale reproduces the pre-fix bug directly: a
// caller mutates Suite.MaxInsts between Gets. With budget folded into
// the key the second Get must re-simulate, not serve the old budget's
// result.
func TestSuiteBudgetChangeNeverStale(t *testing.T) {
	ctx := context.Background()
	s := NewSuite(2_000)
	first, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	s.MaxInsts = 8_000
	second, err := s.Get(ctx, "crc32", fusion.ModeNoFusion)
	if err != nil {
		t.Fatal(err)
	}
	if second == first || second.Stats.CommittedInsts == first.Stats.CommittedInsts {
		t.Fatalf("budget change served a stale result (committed %d both times)",
			first.Stats.CommittedInsts)
	}
}

// TestEngineVersionShape: the engine identity every cache key embeds
// must carry the semantic schema; the VCS suffix is build-dependent.
func TestEngineVersionShape(t *testing.T) {
	v := EngineVersion()
	if !strings.HasPrefix(v, "helios-engine/") {
		t.Fatalf("EngineVersion() = %q, want helios-engine/ prefix", v)
	}
	if v != EngineVersion() {
		t.Error("EngineVersion is not stable within a process")
	}
}
