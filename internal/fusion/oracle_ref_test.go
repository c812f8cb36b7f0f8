package fusion

import (
	"helios/internal/emu"
	"helios/internal/uop"
)

// refOracle is the Oracle as first written: an append/reslice window of
// records and a map of paired sequence numbers. It is kept, test-only, as
// the reference FuzzOracleMatchesReference checks the preallocated-window
// Oracle against; the two share only the catalyst predicates in deps.go.
type refOracle struct {
	cfg    PairConfig
	window []emu.Retired // the last cfg.MaxDist+1 records, oldest first
	paired map[uint64]bool
}

// newRefOracle creates an oracle with the given eligibility rules.
func newRefOracle(cfg PairConfig) *refOracle {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxDist <= 0 {
		cfg.MaxDist = 64
	}
	return &refOracle{cfg: cfg, paired: make(map[uint64]bool)}
}

// Observe consumes the next committed record in program order. If r (as a
// tail nucleus) forms an eligible pair with an older unpaired µ-op, the
// pairing is returned.
func (o *refOracle) Observe(r emu.Retired) (Pairing, bool) {
	// Maintain the sliding window.
	o.window = append(o.window, r)
	if len(o.window) > o.cfg.MaxDist+1 {
		evicted := o.window[0]
		o.window = o.window[1:]
		delete(o.paired, evicted.Seq)
	}
	if r.MemSize == 0 || o.paired[r.Seq] {
		return Pairing{}, false
	}

	tailIdx := len(o.window) - 1
	maxBack := o.cfg.MaxDist
	if o.cfg.ConsecutiveOnly {
		maxBack = 1
	}
	for back := 1; back <= maxBack && tailIdx-back >= 0; back++ {
		headIdx := tailIdx - back
		h := o.window[headIdx]
		if p, ok := o.tryPair(headIdx, tailIdx, h, r); ok {
			o.paired[h.Seq] = true
			o.paired[r.Seq] = true
			return p, true
		}
	}
	return Pairing{}, false
}

func (o *refOracle) tryPair(headIdx, tailIdx int, h, t emu.Retired) (Pairing, bool) {
	if h.MemSize == 0 || o.paired[h.Seq] {
		return Pairing{}, false
	}
	var kind uop.FuseKind
	switch {
	case h.IsLoad() && t.IsLoad():
		kind = uop.FuseLoadPair
	case h.IsStore() && t.IsStore():
		kind = uop.FuseStorePair
	default:
		return Pairing{}, false
	}
	sameBase := h.Inst.Rs1 == t.Inst.Rs1
	if o.cfg.SameBaseOnly && !sameBase {
		return Pairing{}, false
	}
	if o.cfg.SymmetricOnly && h.MemSize != t.MemSize {
		return Pairing{}, false
	}
	cat := uop.Classify(h.EA, h.MemSize, t.EA, t.MemSize, o.cfg.LineSize)
	if !cat.Fuseable() {
		return Pairing{}, false
	}
	if o.cfg.ContiguousOnly && cat != uop.AddrContiguous {
		return Pairing{}, false
	}
	span := o.window[headIdx : tailIdx+1]
	if CatalystHasSerializing(span) {
		return Pairing{}, false
	}
	if kind == uop.FuseLoadPair {
		if TailDependsOnHead(span) {
			return Pairing{}, false // would deadlock
		}
	} else {
		// Store pairs: same base register only (DBR store fusion is
		// negligible, Section IV-B) and no store in the catalyst. A
		// catalyst that rewrites the base register makes the pair
		// DBR-by-value, which the hardware equally cannot fuse.
		if !sameBase {
			return Pairing{}, false
		}
		if CatalystHasStore(span) {
			return Pairing{}, false
		}
		for _, rec := range span[1 : len(span)-1] {
			if rec.Inst.WritesReg(h.Inst.Rs1) {
				return Pairing{}, false
			}
		}
	}
	return Pairing{
		HeadSeq:   h.Seq,
		TailSeq:   t.Seq,
		Kind:      kind,
		Category:  cat,
		Distance:  int(t.Seq - h.Seq),
		SameBase:  sameBase,
		Symmetric: h.MemSize == t.MemSize,
	}, true
}

// Reset clears the window (used on pipeline flushes when the oracle is
// re-primed from the restart point).
func (o *refOracle) Reset() {
	o.window = o.window[:0]
	o.paired = make(map[uint64]bool)
}
