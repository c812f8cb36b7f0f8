package fusion

import (
	"helios/internal/emu"
	"helios/internal/uop"
)

// PairConfig bounds which dynamic memory pairs are considered eligible.
// The defaults mirror the paper: fusion within one cache-line-sized region
// (64 B), head at most 64 µ-ops away, loads may use different base
// registers, store pairs must share the base register and must not fuse
// across another store.
type PairConfig struct {
	LineSize uint64
	MaxDist  int

	// ConsecutiveOnly restricts pairing to adjacent µ-ops (no catalyst).
	ConsecutiveOnly bool
	// SameBaseOnly restricts pairing to µ-ops sharing the architectural
	// base register.
	SameBaseOnly bool
	// ContiguousOnly restricts pairing to exactly contiguous accesses.
	ContiguousOnly bool
	// SymmetricOnly restricts pairing to equal access sizes.
	SymmetricOnly bool
}

// DefaultPairConfig returns the paper's Helios/Oracle eligibility rules.
func DefaultPairConfig() PairConfig {
	return PairConfig{LineSize: 64, MaxDist: 64}
}

// Pairing describes one fused memory pair found in the dynamic stream.
type Pairing struct {
	HeadSeq   uint64
	TailSeq   uint64
	Kind      uop.FuseKind
	Category  uop.AddrCategory
	Distance  int  // tail seq - head seq (1 = consecutive)
	SameBase  bool // same architectural base register
	Symmetric bool // equal access sizes
}

// Consecutive reports whether the pair has an empty catalyst.
func (p Pairing) Consecutive() bool { return p.Distance == 1 }

// Oracle performs perfect look-ahead pairing over the committed dynamic
// stream: every memory µ-op is matched with the closest older unpaired
// memory µ-op that forms an eligible pair. It implements the OracleFusion
// configuration and is also the analysis engine behind Figures 4 and 5.
//
// Between Resets, Observe requires records in strictly increasing Seq
// order, so a record is never already paired when it arrives. Both users
// guarantee it: the pipeline rejects an out-of-sequence source
// (ooo.validateRecord) and re-primes after a Reset from an increasing
// range of it, and AnalyzeTrace reads the emulator's stream.
type Oracle struct {
	cfg PairConfig

	// The window is buf[lo:hi]: the last cfg.MaxDist+1 records, oldest
	// first. buf holds two windows, so Observe writes in place and copies
	// the window down to the front once per cfg.MaxDist+1 records.
	buf    []emu.Retired
	lo, hi int
	// noHead[i] is set when buf[i] cannot head a pair: it is not a memory
	// µ-op, or it is already paired.
	noHead []bool
}

// NewOracle creates an oracle with the given eligibility rules.
func NewOracle(cfg PairConfig) *Oracle {
	if cfg.LineSize == 0 {
		cfg.LineSize = 64
	}
	if cfg.MaxDist <= 0 {
		cfg.MaxDist = 64
	}
	n := 2 * (cfg.MaxDist + 1)
	return &Oracle{cfg: cfg, buf: make([]emu.Retired, n), noHead: make([]bool, n)}
}

// Observe consumes the next committed record in program order. If r (as a
// tail nucleus) forms an eligible pair with an older unpaired µ-op, the
// pairing is returned.
func (o *Oracle) Observe(r emu.Retired) (Pairing, bool) {
	// Maintain the sliding window.
	if o.hi == len(o.buf) {
		n := copy(o.buf, o.buf[o.lo:o.hi])
		copy(o.noHead, o.noHead[o.lo:o.hi])
		o.lo, o.hi = 0, n
	}
	tail := o.hi
	o.buf[tail] = r
	o.noHead[tail] = r.MemSize == 0
	o.hi++
	if o.hi-o.lo > o.cfg.MaxDist+1 {
		o.lo++
	}
	if r.MemSize == 0 {
		return Pairing{}, false
	}

	oldest := o.lo
	if o.cfg.ConsecutiveOnly {
		oldest = max(oldest, tail-1)
	}
	for head := tail - 1; head >= oldest; head-- {
		if o.noHead[head] {
			continue
		}
		if p, ok := o.tryPair(o.buf[head : tail+1]); ok {
			o.noHead[head] = true
			o.noHead[tail] = true
			return p, true
		}
	}
	return Pairing{}, false
}

// tryPair checks whether span's first record (an unpaired memory µ-op)
// and its last form an eligible pair across the records between them.
func (o *Oracle) tryPair(span []emu.Retired) (Pairing, bool) {
	h, t := &span[0], &span[len(span)-1]
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
		for i := 1; i < len(span)-1; i++ {
			if span[i].Inst.WritesReg(h.Inst.Rs1) {
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

// window returns the records the oracle holds, oldest first: the last
// MaxDist+1 observed since the last Reset.
func (o *Oracle) window() []emu.Retired { return o.buf[o.lo:o.hi] }

// Reset clears the window (used on pipeline flushes when the oracle is
// re-primed from the restart point).
func (o *Oracle) Reset() {
	o.lo, o.hi = 0, 0
}
