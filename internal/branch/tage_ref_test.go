package branch

// refTAGE is the TAGE predictor as first written: every access recomputes
// each component's index and tag, and Update runs the whole prediction
// again. It is kept, test-only, as the reference FuzzTAGEMatchesReference
// checks the one-lookup TAGE against; it shares no TAGE code with it.
type refTAGE struct {
	base  *Bimodal
	comps []*refTAGEComponent

	// Allocation-throttling counter (useful-bit reset).
	tick int
}

type refTAGEComponent struct {
	histLen uint
	logSize uint
	mask    uint64
	entries []refTAGEEntry
}

type refTAGEEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed: -4..3, taken when >= 0
	useful uint8 // 2-bit usefulness
}

// refTAGEHistLens is a private copy of the history lengths, so a change to
// tageHistLens shows up as a reference mismatch.
var refTAGEHistLens = []uint{4, 8, 16, 32, 64, 128}

// newRefTAGE creates a refTAGE predictor with six tagged components of
// 2^logSize entries each and a 2^(logSize+1)-entry bimodal base.
func newRefTAGE(logSize uint) *refTAGE {
	t := &refTAGE{base: NewBimodal(logSize + 1)}
	for _, hl := range refTAGEHistLens {
		n := uint64(1) << logSize
		t.comps = append(t.comps, &refTAGEComponent{
			histLen: hl,
			logSize: logSize,
			mask:    n - 1,
			entries: make([]refTAGEEntry, n),
		})
	}
	return t
}

// refFoldHistory folds histLen bits of history into width bits.
func refFoldHistory(ghr uint64, histLen, width uint) uint64 {
	h := ghr
	if histLen < 64 {
		h &= 1<<histLen - 1
	}
	var folded uint64
	for histLen > 0 {
		folded ^= h & (1<<width - 1)
		h >>= width
		if histLen >= width {
			histLen -= width
		} else {
			histLen = 0
		}
	}
	return folded
}

func (c *refTAGEComponent) index(pc, ghr uint64) uint64 {
	return ((pc >> 2) ^ (pc >> (2 + c.logSize)) ^ refFoldHistory(ghr, c.histLen, c.logSize)) & c.mask
}

func (c *refTAGEComponent) tag(pc, ghr uint64) uint16 {
	return uint16(((pc >> 2) ^ refFoldHistory(ghr, c.histLen, 8) ^ refFoldHistory(ghr, c.histLen, 7)<<1) & 0xff)
}

// Predict implements DirectionPredictor.
func (t *refTAGE) Predict(pc, ghr uint64) bool {
	pred, _, _ := t.predict(pc, ghr)
	return pred
}

// predict returns the prediction, the provider component index (-1 for the
// base predictor) and the alternate prediction.
func (t *refTAGE) predict(pc, ghr uint64) (pred bool, provider int, altPred bool) {
	provider = -1
	altProvider := -1
	for i := len(t.comps) - 1; i >= 0; i-- {
		c := t.comps[i]
		e := &c.entries[c.index(pc, ghr)]
		if e.tag == c.tag(pc, ghr) {
			if provider < 0 {
				provider = i
			} else {
				altProvider = i
				break
			}
		}
	}
	altPred = t.base.Predict(pc, ghr)
	if altProvider >= 0 {
		c := t.comps[altProvider]
		altPred = c.entries[c.index(pc, ghr)].ctr >= 0
	}
	if provider >= 0 {
		c := t.comps[provider]
		return c.entries[c.index(pc, ghr)].ctr >= 0, provider, altPred
	}
	return altPred, provider, altPred
}

// Update implements DirectionPredictor.
func (t *refTAGE) Update(pc, ghr uint64, taken bool) {
	pred, provider, altPred := t.predict(pc, ghr)

	// Update the provider's counter (or the base predictor).
	if provider >= 0 {
		c := t.comps[provider]
		e := &c.entries[c.index(pc, ghr)]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		// Usefulness: the provider was useful if it differed from altpred
		// and was correct.
		if pred != altPred {
			if pred == taken {
				if e.useful < 3 {
					e.useful++
				}
			} else if e.useful > 0 {
				e.useful--
			}
		}
	} else {
		t.base.Update(pc, ghr, taken)
	}

	// On a misprediction, try to allocate an entry in a longer-history
	// component.
	if pred != taken {
		t.allocate(pc, ghr, taken, provider)
	}
}

func (t *refTAGE) allocate(pc, ghr uint64, taken bool, provider int) {
	start := provider + 1
	if start >= len(t.comps) {
		return
	}
	// Find a component with a non-useful entry.
	for i := start; i < len(t.comps); i++ {
		c := t.comps[i]
		e := &c.entries[c.index(pc, ghr)]
		if e.useful == 0 {
			e.tag = c.tag(pc, ghr)
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	// All candidates were useful: age them so future allocations succeed.
	t.tick++
	if t.tick >= 8 {
		t.tick = 0
		for i := start; i < len(t.comps); i++ {
			c := t.comps[i]
			e := &c.entries[c.index(pc, ghr)]
			if e.useful > 0 {
				e.useful--
			}
		}
	}
}
