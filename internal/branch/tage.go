package branch

// TAGE is a tagged-geometric-history-length conditional branch predictor
// (Seznec & Michaud), the class of predictor the paper's baseline machine
// uses (L-TAGE). It combines a bimodal base predictor with several tagged
// components indexed with geometrically increasing history lengths.
type TAGE struct {
	base  *Bimodal
	comps [numTagged]tageComponent

	// Allocation-throttling counter (useful-bit reset).
	tick int
}

type tageComponent struct {
	histLen uint
	logSize uint
	mask    uint64
	entries []tageEntry
}

type tageEntry struct {
	tag    uint16
	ctr    int8  // 3-bit signed: -4..3, taken when >= 0
	useful uint8 // 2-bit usefulness
}

// numTagged is the number of tagged components.
const numTagged = 6

// tageHistLens are the geometric history lengths of the tagged components.
var tageHistLens = [numTagged]uint{4, 8, 16, 32, 64, 128}

// NewTAGE creates a TAGE predictor with six tagged components of
// 2^logSize entries each and a 2^(logSize+1)-entry bimodal base.
func NewTAGE(logSize uint) *TAGE {
	t := &TAGE{base: NewBimodal(logSize + 1)}
	n := uint64(1) << logSize
	for i, hl := range tageHistLens {
		t.comps[i] = tageComponent{
			histLen: hl,
			logSize: logSize,
			mask:    n - 1,
			entries: make([]tageEntry, n),
		}
	}
	return t
}

// foldHistory folds histLen bits of history into width bits. The loop
// ends once the remaining history is zero, which also stops it at the
// end of the 64-bit register for the longer history lengths.
func foldHistory(ghr uint64, histLen, width uint) uint64 {
	h := ghr
	if histLen < 64 {
		h &= 1<<histLen - 1
	}
	var folded uint64
	for h != 0 {
		folded ^= h & (1<<width - 1)
		h >>= width
	}
	return folded
}

func (c *tageComponent) index(pc, ghr uint64) uint64 {
	return ((pc >> 2) ^ (pc >> (2 + c.logSize)) ^ foldHistory(ghr, c.histLen, c.logSize)) & c.mask
}

func (c *tageComponent) tag(pc, ghr uint64) uint16 {
	return uint16(((pc >> 2) ^ foldHistory(ghr, c.histLen, 8) ^ foldHistory(ghr, c.histLen, 7)<<1) & 0xff)
}

// tageLookup is one access to the predictor for a (pc, ghr) pair: every
// tagged component's index and tag, each computed once, and the
// prediction they give. Prediction, training and allocation all read it.
type tageLookup struct {
	idx      [numTagged]uint64
	tag      [numTagged]uint16
	provider int  // longest-history tag hit; -1 for the base predictor
	pred     bool // the provider's prediction
	altPred  bool // the next-longest hit's prediction, else the base's
}

func (t *TAGE) lookup(pc, ghr uint64) tageLookup {
	var l tageLookup
	for i := range t.comps {
		if i > 0 && t.comps[i-1].histLen >= 64 {
			// Both fold the whole 64-bit register (DESIGN.md §7): the
			// index and tag are the previous component's.
			l.idx[i], l.tag[i] = l.idx[i-1], l.tag[i-1]
			continue
		}
		l.idx[i] = t.comps[i].index(pc, ghr)
		l.tag[i] = t.comps[i].tag(pc, ghr)
	}
	l.provider = -1
	altProvider := -1
	for i := numTagged - 1; i >= 0; i-- {
		if t.comps[i].entries[l.idx[i]].tag != l.tag[i] {
			continue
		}
		if l.provider < 0 {
			l.provider = i
			continue
		}
		altProvider = i
		break
	}
	l.altPred = t.base.Predict(pc, ghr)
	if altProvider >= 0 {
		l.altPred = t.comps[altProvider].entries[l.idx[altProvider]].ctr >= 0
	}
	l.pred = l.altPred
	if l.provider >= 0 {
		l.pred = t.comps[l.provider].entries[l.idx[l.provider]].ctr >= 0
	}
	return l
}

// Predict implements DirectionPredictor.
func (t *TAGE) Predict(pc, ghr uint64) bool {
	return t.lookup(pc, ghr).pred
}

// Update implements DirectionPredictor.
func (t *TAGE) Update(pc, ghr uint64, taken bool) {
	t.Resolve(pc, ghr, taken)
}

// Resolve is Predict followed by Update from a single lookup: it trains
// the predictor with the branch's resolved direction and returns the
// prediction made before training. A caller that knows the outcome when
// it predicts (a trace-driven frontend) pays for one lookup, not two.
func (t *TAGE) Resolve(pc, ghr uint64, taken bool) bool {
	l := t.lookup(pc, ghr)

	// Update the provider's counter (or the base predictor).
	if l.provider >= 0 {
		e := &t.comps[l.provider].entries[l.idx[l.provider]]
		if taken && e.ctr < 3 {
			e.ctr++
		} else if !taken && e.ctr > -4 {
			e.ctr--
		}
		// Usefulness: the provider was useful if it differed from altpred
		// and was correct.
		if l.pred != l.altPred {
			if l.pred == taken {
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
	if l.pred != taken {
		t.allocate(&l, taken)
	}
	return l.pred
}

func (t *TAGE) allocate(l *tageLookup, taken bool) {
	start := l.provider + 1
	if start >= numTagged {
		return
	}
	// Find a component with a non-useful entry.
	for i := start; i < numTagged; i++ {
		e := &t.comps[i].entries[l.idx[i]]
		if e.useful == 0 {
			e.tag = l.tag[i]
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
		for i := start; i < numTagged; i++ {
			if e := &t.comps[i].entries[l.idx[i]]; e.useful > 0 {
				e.useful--
			}
		}
	}
}
