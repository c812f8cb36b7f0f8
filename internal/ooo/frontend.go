package ooo

import (
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/isa"
	"helios/internal/uop"
)

// waiter records a µ-op waiting on a physical register in a specific
// source slot (the slot is re-checked at wake-up because NCSF unfusing can
// retract sources, and the generation because a retracted waiter's µ-op
// may have been released and recycled before the register fires).
type waiter struct {
	u    *pUop
	slot int
	gen  uint32
}

type waiterList []waiter

// frontendStage models Fetch and Decode: it pulls up to FetchWidth
// committed-path records per cycle, performs branch prediction (stalling
// fetch on a mispredict until the branch resolves), applies decode-window
// consecutive fusion, consults the Helios fusion predictor or the oracle
// pairing plan, and inserts the surviving µ-ops into the allocation queue.
func (p *Pipeline) frontendStage() {
	if p.fetchStalled {
		if p.cycle < p.fetchResumeAt {
			return
		}
		p.fetchStalled = false
	}
	if p.cycle < p.icacheReadyAt {
		return
	}

	group := p.fetchGroup[:0]
	for len(group) < p.cfg.FetchWidth {
		if p.aq.len()+len(group) >= p.aq.cap() {
			// Allocation queue backpressure truncated this fetch group.
			// Like the rename-side stall_* counters, the family is
			// charged at most once per cycle to the first blocking
			// resource: a cycle that already stalled in rename is
			// charged there (rename runs before fetch, so the flag is
			// current), and only an AQ-bound fetch counts here.
			if !p.renameStalled {
				p.st.StallAQ++
			}
			break
		}
		if p.nextFetch >= uint64(len(p.recs)) {
			p.fetchDone = true
			break // recording exhausted
		}
		rec := &p.recs[p.nextFetch]
		// Instruction cache: one access per new line touched.
		line := rec.PC / p.cfg.Cache.LineSize
		if line != p.lastFetchLine {
			p.lastFetchLine = line
			if lat := p.mem.FetchLatency(rec.PC, p.cycle); lat > 1 {
				p.icacheReadyAt = p.cycle + uint64(lat)
				if len(group) == 0 {
					// Nothing fetched this cycle; retry after the miss.
					return
				}
				break
			}
		}

		u := p.arena.alloc()
		u.r, u.seq, u.ghr, u.st = rec, rec.Seq, p.ghr.Bits(), stDecoded
		u.decodedAt = p.cycle
		u.tdBucket = -1 // no dispatch slot claimed yet
		p.nextFetch++

		taken := rec.NextPC != rec.PC+4
		switch {
		case rec.Inst.Op.IsBranch():
			p.st.Branches++
			mispred := p.tage.Resolve(rec.PC, p.ghr.Bits(), rec.Taken) != rec.Taken
			if rec.Taken && !mispred {
				if _, ok := p.btb.Lookup(rec.PC); !ok {
					mispred = true // taken but no target available
				}
			}
			if rec.Taken {
				p.btb.Insert(rec.PC, rec.NextPC)
			}
			p.ghr.Push(rec.Taken)
			if mispred {
				u.mispredicted = true
				p.st.BranchMispredicts++
			}
		case rec.Inst.Op == isa.OpJAL:
			if rec.Inst.Rd == isa.RA {
				p.ras.Push(rec.PC + 4)
			}
			// Direct jumps are decoded early: no misprediction.
		case rec.Inst.Op == isa.OpJALR:
			var predicted uint64
			havePred := false
			if rec.Inst.Rd == isa.Zero && rec.Inst.Rs1 == isa.RA {
				predicted, havePred = p.ras.Pop() // return
			} else {
				predicted, havePred = p.btb.Lookup(rec.PC)
			}
			if rec.Inst.Rd == isa.RA {
				p.ras.Push(rec.PC + 4) // call via register
			}
			if !havePred || predicted != rec.NextPC {
				u.mispredicted = true
				p.st.BranchMispredicts++
			}
			p.btb.Insert(rec.PC, rec.NextPC)
		}

		group = append(group, u)
		if u.mispredicted {
			// Fetch cannot proceed past an unresolved misprediction.
			p.fetchStalled = true
			p.fetchResumeAt = ^uint64(0)
			p.fetchHeldBy = u.seq
			break
		}
		if taken {
			break // fetch group ends at a taken control transfer
		}
	}
	p.fetchGroup = group
	if len(group) == 0 {
		return
	}

	p.fuseConsecutive(group)
	switch {
	case p.cfg.Mode.Predictive():
		p.markPredictedPairs(group)
	case p.cfg.Mode.OraclePairs():
		p.markOraclePairs(group)
	}

	for i, u := range group {
		if u.st == stKilled {
			// Absorbed into a fused µ-op at decode: the head points at its
			// record and nothing else refers to it.
			p.arena.release(u)
			group[i] = nil
			continue
		}
		p.aq.push(u)
	}
}

// fuseConsecutive applies decode-window fusion: non-memory Table I idioms
// and consecutive contiguous same-base memory pairs, depending on the
// mode. The window covers the current decode group plus the youngest
// not-yet-renamed µ-op in the AQ.
func (p *Pipeline) fuseConsecutive(group []*pUop) {
	mode := p.cfg.Mode
	if !mode.NonMemIdioms() && !mode.ConsecutiveMemPairs() {
		return
	}
	prev := p.aq.back() // may pair with the first µ-op of this group
	for _, u := range group {
		if u.st == stKilled {
			continue
		}
		if prev != nil && prev.kind == uop.FuseNone && !prev.isTailNucleus &&
			prev.seq+1 == u.seq && !prev.r.Inst.Op.IsControlFlow() {
			if p.tryFusePair(prev, u) {
				prev = nil // fused µ-op cannot immediately fuse again
				continue
			}
		}
		prev = u
	}
}

// tryFusePair attempts decode-time fusion of adjacent µ-ops a and b;
// b is absorbed on success.
func (p *Pipeline) tryFusePair(a, b *pUop) bool {
	mode := p.cfg.Mode
	if mode.NonMemIdioms() {
		if id := fusion.MatchNonMemIdiom(a.r.Inst, b.r.Inst); id != fusion.IdiomNone {
			p.absorbTail(a, b, uop.FuseIdiom)
			return true
		}
	}
	if mode.ConsecutiveMemPairs() && !mode.OraclePairs() {
		if id, ok := fusion.MatchMemPair(a.r.Inst, b.r.Inst, mode.AsymmetricPairs()); ok {
			p.absorbTail(a, b, id.Kind())
			a.pairCat = uop.Classify(a.r.EA, a.r.MemSize, b.r.EA, b.r.MemSize, p.cfg.PairCfg.LineSize)
			a.pairDistance = 1
			a.pairSameBase = true
			a.pairSymmetric = a.r.MemSize == b.r.MemSize
			return true
		}
	}
	return false
}

// absorbTail turns a into a fused µ-op holding b's work; b disappears from
// the pipeline (consecutive fusion: the tail nucleus vanishes at decode).
func (p *Pipeline) absorbTail(a, b *pUop, kind uop.FuseKind) {
	a.kind = kind
	a.tailR = b.r
	a.validated = true
	b.st = stKilled
}

// markPredictedPairs consults the Helios FP for every unfused memory µ-op
// of the group and establishes speculative NCSF links when the predicted
// head nucleus is still available in the AQ or this decode group.
func (p *Pipeline) markPredictedPairs(group []*pUop) {
	for _, u := range group {
		if u.st == stKilled || u.r.MemSize == 0 || u.kind != uop.FuseNone || u.isTailNucleus {
			continue
		}
		pred, ok := p.fp.Predict(u.r.PC, u.ghr)
		if !ok || !pred.Confident || pred.Distance < 1 {
			continue
		}
		head := p.findFusionHead(u.seq-uint64(pred.Distance), group)
		if head == nil || !p.headEligible(head, u) {
			continue
		}
		p.establishNCSF(head, u, pred, true)
	}
}

// markOraclePairs feeds the oracle and applies its pairing plan.
func (p *Pipeline) markOraclePairs(group []*pUop) {
	for _, u := range group {
		// The oracle consumes every µ-op exactly once, in decode order
		// (tail nucleii killed by idiom fusion still feed it).
		if u.seq == p.oracleFed {
			if pairing, ok := p.oracle.Observe(*u.r); ok {
				p.plannedPairs.put(pairing)
			}
			p.oracleFed++
		}
	}
	for _, u := range group {
		if u.st == stKilled || u.kind != uop.FuseNone || u.isTailNucleus {
			continue
		}
		pairing, ok := p.plannedPairs.take(u.seq)
		if !ok {
			continue
		}
		head := p.findFusionHead(pairing.HeadSeq, group)
		if head == nil || !p.headEligible(head, u) {
			continue
		}
		if pairing.Distance == 1 {
			// Consecutive: fuse immediately, the tail vanishes.
			p.absorbTail(head, u, pairing.Kind)
			head.pairCat = pairing.Category
			head.pairDistance = 1
			head.pairSameBase = pairing.SameBase
			head.pairSymmetric = pairing.Symmetric
			continue
		}
		p.establishNCSF(head, u, helios.Prediction{}, false)
	}
}

// findFusionHead locates the µ-op with the given seq in the AQ or the
// current decode group, returning nil if it already left for Rename.
func (p *Pipeline) findFusionHead(seq uint64, group []*pUop) *pUop {
	for _, u := range group {
		if u.seq == seq {
			return u
		}
	}
	for i := 0; i < p.aq.len(); i++ {
		if u := p.aq.at(i); u.seq == seq {
			return u
		}
	}
	return nil
}

// headEligible checks the AQ-time fusion conditions (Section IV-A2):
// same µ-op type, head not already fused and not part of another pair.
func (p *Pipeline) headEligible(head, tail *pUop) bool {
	if head == tail || head.st == stKilled {
		return false
	}
	if head.kind != uop.FuseNone || head.isTailNucleus {
		return false
	}
	if head.r.MemSize == 0 {
		return false
	}
	if head.r.IsLoad() != tail.r.IsLoad() {
		return false
	}
	// Store pairs must share the architectural base register (DBR store
	// fusion is not supported).
	if head.r.IsStore() && head.r.Inst.Rs1 != tail.r.Inst.Rs1 {
		return false
	}
	return true
}

// establishNCSF links head and tail as a speculative non-consecutive pair.
// The head becomes the NCSF'd µ-op; the tail nucleus stays in the AQ and
// flows to Rename to validate it.
func (p *Pipeline) establishNCSF(head, tail *pUop, pred helios.Prediction, usedPred bool) {
	rec := tail.r
	head.kind = uop.FuseLoadPair
	if head.r.IsStore() {
		head.kind = uop.FuseStorePair
	}
	head.tailR = rec
	head.isNCSF = true
	head.validated = false
	head.pred = pred
	head.usedPred = usedPred
	head.predGhr = tail.ghr
	head.pairCat = uop.Classify(head.r.EA, head.r.MemSize, rec.EA, rec.MemSize, p.cfg.PairCfg.LineSize)
	head.pairDistance = int(tail.seq - head.seq)
	head.pairSameBase = head.r.Inst.Rs1 == rec.Inst.Rs1
	head.pairSymmetric = head.r.MemSize == rec.MemSize
	tail.isTailNucleus = true
	tail.headUop = head
	tail.headGen = head.gen
	if usedPred {
		p.st.FusionPredictions++
	}
}
