package branch

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// trainAccuracy runs a predictor over a synthetic outcome stream and
// returns the fraction predicted correctly after warmup.
func trainAccuracy(p DirectionPredictor, outcomes func(i int) (pc uint64, taken bool), n, warmup int) float64 {
	var h History
	correct, total := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		pred := p.Predict(pc, h.Bits())
		if i >= warmup {
			total++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, h.Bits(), taken)
		h.Push(taken)
	}
	return float64(correct) / float64(total)
}

func TestBimodalLearnsBias(t *testing.T) {
	p := NewBimodal(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		// Branch at 0x100 is always taken; branch at 0x200 never.
		if i%2 == 0 {
			return 0x100, true
		}
		return 0x200, false
	}, 2000, 100)
	if acc < 0.99 {
		t.Errorf("bimodal accuracy on biased branches = %.3f, want >= 0.99", acc)
	}
}

func TestBimodalCannotLearnPattern(t *testing.T) {
	// Strictly alternating outcome: a bimodal counter hovers and misses.
	p := NewBimodal(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		return 0x100, i%2 == 0
	}, 2000, 100)
	if acc > 0.7 {
		t.Errorf("bimodal accuracy on alternating pattern = %.3f, expected poor", acc)
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	p := NewGshare(12, 12)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		return 0x100, i%2 == 0 // alternating: trivially captured by history
	}, 4000, 1000)
	if acc < 0.99 {
		t.Errorf("gshare accuracy on alternating pattern = %.3f, want >= 0.99", acc)
	}
}

func TestTAGELearnsLongPattern(t *testing.T) {
	// Period-20 pattern requires longer history than gshare's practical
	// reach with a small table; TAGE should nail it.
	pattern := make([]bool, 20)
	r := rand.New(rand.NewSource(7))
	for i := range pattern {
		pattern[i] = r.Intn(2) == 0
	}
	p := NewTAGE(10)
	acc := trainAccuracy(p, func(i int) (uint64, bool) {
		return 0x400, pattern[i%len(pattern)]
	}, 20000, 5000)
	if acc < 0.95 {
		t.Errorf("TAGE accuracy on period-20 pattern = %.3f, want >= 0.95", acc)
	}
}

func TestTAGEBeatsBimodalOnCorrelated(t *testing.T) {
	// Branch B correlates with the previous two outcomes of branch A.
	gen := func(i int) (uint64, bool) {
		phase := i % 3
		switch phase {
		case 0:
			return 0x100, i%6 < 3
		case 1:
			return 0x200, i%6 >= 3
		default:
			return 0x300, (i%6 < 3) != (i%6 >= 3)
		}
	}
	tage := trainAccuracy(NewTAGE(10), gen, 12000, 3000)
	bimodal := trainAccuracy(NewBimodal(10), gen, 12000, 3000)
	if tage < bimodal {
		t.Errorf("TAGE (%.3f) should be at least as good as bimodal (%.3f)", tage, bimodal)
	}
	if tage < 0.9 {
		t.Errorf("TAGE accuracy = %.3f, want >= 0.9", tage)
	}
}

func TestFoldHistory(t *testing.T) {
	// Folding must confine the result to width bits and depend on history.
	if got := foldHistory(^uint64(0), 64, 10); got >= 1<<10 {
		t.Errorf("fold overflow: %#x", got)
	}
	if foldHistory(0b1010, 4, 10) == foldHistory(0b0101, 4, 10) {
		t.Error("fold should distinguish different histories")
	}
	if foldHistory(0, 64, 10) != 0 {
		t.Error("fold of zero history must be zero")
	}

	// The early-exit loop must equal the reference loop for every
	// (histLen, width) TAGE folds with: index widths at logSize 10 and 11,
	// and the two tag widths.
	r := rand.New(rand.NewSource(3))
	ghrs := []uint64{0, 1, ^uint64(0), 1 << 63, 0x8000_0000_0000_0001}
	for i := 0; i < 200; i++ {
		// Vary the length of the set history too: short GHRs are where
		// the loop exits early.
		ghrs = append(ghrs, r.Uint64()>>uint(r.Intn(64)))
	}
	for _, hl := range tageHistLens {
		for _, width := range []uint{10, 11, 8, 7} {
			for _, ghr := range ghrs {
				if got, want := foldHistory(ghr, hl, width), refFoldHistory(ghr, hl, width); got != want {
					t.Fatalf("foldHistory(%#x, %d, %d) = %#x, reference %#x", ghr, hl, width, got, want)
				}
			}
		}
	}
}

// FuzzTAGEMatchesReference drives the one-lookup TAGE and the reference
// copy with the same (pc, ghr, taken) sequence. Every step must give the
// same prediction and leave both with identical tables and tick. Each
// step takes four bytes: two select the PC from a small set (so entries
// alias and allocation runs out of non-useful slots), one is mixed into
// the history at a position the fourth chooses, and the fourth's low bits
// give the outcome and whether the step uses Resolve or Predict+Update.
func FuzzTAGEMatchesReference(f *testing.F) {
	f.Add(uint8(4), []byte("\x10\x00\x00\x01\x10\x00\x00\x00\x20\x01\xff\x83"))
	f.Add(uint8(10), []byte("0123456789abcdefghijklmnopqrstuvwxyz"))
	// History bits above 32 only: the 32- and 64-length components differ.
	f.Add(uint8(4), []byte("\x00\x00\x03\x88\x00\x00\x03\x89\x00\x00\x03\x8a"))
	f.Fuzz(func(t *testing.T, logSize uint8, data []byte) {
		ls := uint(2 + logSize%9) // 2..10: small tables collide often
		got, ref := NewTAGE(ls), newRefTAGE(ls)
		var h History
		for step := 0; len(data) >= 4; step, data = step+1, data[4:] {
			pc := 0x1000 + uint64(data[0])<<2 + uint64(data[1]&7)<<12
			ghr := h.Bits() ^ uint64(data[2])<<(data[3]>>2)
			taken := data[3]&1 != 0
			want := ref.Predict(pc, ghr)
			ref.Update(pc, ghr, taken)
			var pred bool
			if data[3]&2 != 0 {
				pred = got.Resolve(pc, ghr, taken)
			} else {
				pred = got.Predict(pc, ghr)
				got.Update(pc, ghr, taken)
			}
			if pred != want {
				t.Fatalf("step %d: pc=%#x ghr=%#x: prediction %v, reference %v", step, pc, ghr, pred, want)
			}
			if diff := tageStateDiff(got, ref); diff != "" {
				t.Fatalf("step %d: pc=%#x ghr=%#x taken=%v: %s", step, pc, ghr, taken, diff)
			}
			h.Push(taken)
		}
	})
}

// tageStateDiff describes the first difference between the two
// predictors' state, or returns "" when they match.
func tageStateDiff(got *TAGE, ref *refTAGE) string {
	if got.tick != ref.tick {
		return fmt.Sprintf("tick %d, reference %d", got.tick, ref.tick)
	}
	if !slices.Equal(got.base.table, ref.base.table) {
		return "base bimodal tables differ"
	}
	if len(got.comps) != len(ref.comps) {
		return fmt.Sprintf("%d components, reference %d", len(got.comps), len(ref.comps))
	}
	for i := range got.comps {
		g, r := got.comps[i].entries, ref.comps[i].entries
		for j := range r {
			if g[j].tag != r[j].tag || g[j].ctr != r[j].ctr || g[j].useful != r[j].useful {
				return fmt.Sprintf("component %d entry %d = %+v, reference %+v", i, j, g[j], r[j])
			}
		}
	}
	return ""
}

// TestTAGEResolveNoAllocs pins the frontend's per-branch call: one
// lookup and the training it feeds allocate nothing.
func TestTAGEResolveNoAllocs(t *testing.T) {
	p := NewTAGE(10)
	var h History
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		taken := i%3 != 0
		p.Resolve(0x400+uint64(i%64)*4, h.Bits(), taken)
		h.Push(taken)
		i++
	})
	if allocs != 0 {
		t.Errorf("Resolve allocates %.1f per call, want 0", allocs)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(64, 4)
	if _, ok := b.Lookup(0x1000); ok {
		t.Error("empty BTB hit")
	}
	b.Insert(0x1000, 0x2000)
	if tgt, ok := b.Lookup(0x1000); !ok || tgt != 0x2000 {
		t.Errorf("lookup = %#x, %v", tgt, ok)
	}
	// Update in place.
	b.Insert(0x1000, 0x3000)
	if tgt, _ := b.Lookup(0x1000); tgt != 0x3000 {
		t.Errorf("updated target = %#x", tgt)
	}
}

func TestBTBEviction(t *testing.T) {
	b := NewBTB(1, 2) // tiny: one set, two ways
	b.Insert(0x100, 1)
	b.Insert(0x200, 2)
	// Touch 0x100 so 0x200 becomes LRU.
	b.Lookup(0x100)
	b.Insert(0x300, 3)
	if _, ok := b.Lookup(0x200); ok {
		t.Error("LRU entry should have been evicted")
	}
	if _, ok := b.Lookup(0x100); !ok {
		t.Error("MRU entry should have survived")
	}
	if _, ok := b.Lookup(0x300); !ok {
		t.Error("new entry missing")
	}
}

func TestRAS(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if r.Depth() != 1 {
		t.Errorf("depth = %d, want 1", r.Depth())
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites oldest
	if v, _ := r.Pop(); v != 3 {
		t.Errorf("pop = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Errorf("pop = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Error("RAS should be empty after wrap: entry 1 was overwritten")
	}
}

func TestHistory(t *testing.T) {
	var h History
	h.Push(true)
	h.Push(false)
	h.Push(true)
	if h.Bits() != 0b101 {
		t.Errorf("bits = %#b", h.Bits())
	}
	h.Set(0)
	if h.Bits() != 0 {
		t.Error("Set failed")
	}
}
