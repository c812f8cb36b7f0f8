package ooo

import (
	"sort"

	"helios/internal/stats"
	"helios/internal/uop"
)

// flushFrom squashes every µ-op with seq >= from and redirects the
// frontend to re-fetch from that point. Fused µ-ops older than the flush
// point whose tail nucleus falls inside the flushed region are unfused in
// place first (repair cases 5-7, Section IV-C), so no architectural work
// is lost or duplicated.
//
//helios:hotalloc-ok flush repair path: runs once per misprediction/violation, not per cycle; its appends and sort are amortized over the flush penalty
func (p *Pipeline) flushFrom(from uint64) {
	p.st.Flushes++
	p.flushedAt = p.cycle
	p.flushPending = true
	// Top-down: rename idles on an empty AQ while the frontend refills
	// — that is squash recovery, not a frontend deficiency. The flag
	// clears at the next dispatch.
	p.tdRecovering = true

	// Unfuse surviving fused µ-ops whose tail lies in the flushed region.
	for i := 0; i < p.rob.len(); i++ {
		u := p.rob.at(i)
		if u.seq >= from {
			break
		}
		if u.kind != uop.FuseNone && !u.unfused && u.tailR != nil && u.tailR.Seq >= from {
			p.unfuseInPlace(u)
		}
	}

	// Kill younger µ-ops in the AQ (they have no backend state yet).
	// Killed µ-ops are collected and recycled only at the end of the
	// flush: the queue filters below still inspect their st/seq fields,
	// which a reset would wipe.
	var ghrRestore uint64
	haveGhr := false
	for p.aq.len() > 0 {
		u := p.aq.back()
		if u.seq < from {
			break
		}
		u.st = stKilled
		ghrRestore, haveGhr = u.ghr, true
		if p.obs != nil && !u.isTailNucleus {
			p.obsEmit(u, false)
		}
		// A killed tail nucleus whose head survives in the AQ (not yet
		// renamed) must release the head, or it would wait forever. The
		// generation check skips heads already recycled into new µ-ops.
		if u.isTailNucleus && u.headUop != nil && u.headUop.gen == u.headGen &&
			u.headUop.st == stDecoded {
			p.cancelNCSF(u.headUop, u)
		}
		p.aq.popBack()
		p.deadUops = append(p.deadUops, u)
	}

	// Kill younger ROB entries and collect their register allocations.
	for p.rob.len() > 0 {
		u := p.rob.back()
		if u.seq < from {
			break
		}
		p.rob.popBack()
		if u.st == stDispatched {
			p.iqCount--
		}
		u.st = stKilled
		ghrRestore, haveGhr = u.ghr, true
		// The dispatch slot this µ-op claimed bought no retired work.
		p.tdReclassify(u, stats.TDBadSpeculation)
		if p.obs != nil {
			p.obsEmit(u, false)
		}
		for i := 0; i < int(u.numDst); i++ {
			if preg := u.dstPhys[i]; preg >= 0 {
				p.freePhys(preg)
			}
		}
		p.deadUops = append(p.deadUops, u)
	}

	// Rebuild the speculative RAT: committed state plus the surviving
	// in-flight writes applied in architectural order (a validated tail
	// nucleus's write belongs at the tail's position, carried by the
	// head's entry).
	type write struct {
		seq  int64
		arch uint8
		preg int32
	}
	var writes []write
	for i := 0; i < p.rob.len(); i++ {
		u := p.rob.at(i)
		for d := 0; d < int(u.numDst); d++ {
			if u.dstPhys[d] < 0 {
				continue
			}
			seqW := int64(u.seq)
			if d >= int(u.ownDsts) && u.tailR != nil {
				seqW = int64(u.tailR.Seq)
			}
			writes = append(writes, write{seq: seqW, arch: u.dstArch[d], preg: u.dstPhys[d]})
		}
	}
	sort.Slice(writes, func(i, j int) bool { return writes[i].seq < writes[j].seq })
	p.rat = p.cRAT
	for _, w := range writes {
		p.rat[w.arch] = w.preg
	}

	// Filter the backend queues.
	p.ready.truncate(from)
	p.lq = filterLive(p.lq, from)
	p.sq = filterLive(p.sq, from)

	// Pending NCSF bookkeeping: heads were either killed or unfused above.
	live := p.pendingNCSF[:0]
	for _, h := range p.pendingNCSF {
		if h.st != stKilled && !h.unfused && h.seq < from {
			live = append(live, h)
		}
	}
	p.pendingNCSF = live

	// Frontend redirect.
	p.nextFetch = from
	if haveGhr {
		p.ghr.Set(ghrRestore)
	}
	if p.fetchStalled && p.fetchHeldBy >= from {
		p.fetchStalled = false
	}

	// Re-prime the oracle from the history preceding the flush point.
	if p.oracle != nil {
		p.oracle.Reset()
		p.plannedPairs.clear()
		start := uint64(0)
		if from > uint64(p.cfg.PairCfg.MaxDist+1) {
			start = from - uint64(p.cfg.PairCfg.MaxDist+1)
		}
		for _, r := range p.recs[start:from] {
			if pairing, ok := p.oracle.Observe(r); ok {
				// Pairs wholly before the flush point were already
				// applied (or dropped); only future tails matter.
				if pairing.TailSeq >= from {
					p.plannedPairs.put(pairing)
				}
			}
		}
		p.oracleFed = from
	}

	// Recycle the killed µ-ops: every queue filter above has run, so the
	// only references left are generation-checked (waiters, event wheel)
	// or in last cycle's fetch-group scratch, which is reset before reuse.
	for i, u := range p.deadUops {
		p.arena.release(u)
		p.deadUops[i] = nil
	}
	p.deadUops = p.deadUops[:0]
}

// filterLive drops killed µ-ops and those at or past the flush point.
func filterLive(q []*pUop, from uint64) []*pUop {
	n := 0
	for _, u := range q {
		if u.st != stKilled && u.seq < from {
			q[n] = u
			n++
		}
	}
	return q[:n]
}

// unfuseInPlace reverts a fused µ-op to a single access after it renamed:
// the tail's work is given up (the tail will be re-fetched) and its
// resources released. The head keeps its own access.
func (p *Pipeline) unfuseInPlace(u *pUop) {
	if u.unfused {
		return
	}
	u.unfused = true
	u.validated = true
	// One retiring instruction now, not two: move the dispatch slot
	// from fused-retiring back to plain retiring.
	if u.tdBucket == int8(stats.TDFusedRetiring) {
		p.tdReclassify(u, stats.TDRetiring)
	}
	p.removePendingNCSF(u)
	// Release the tail's physical destination if the head allocated one.
	if u.numDst > u.ownDsts {
		slot := int(u.numDst) - 1
		if preg := u.dstPhys[slot]; preg >= 0 {
			p.freePhys(preg)
		}
		u.dstPhys[slot] = invalidReg
		u.numDst--
	}
	// Retract the tail's source slots: they sit above the head's own
	// sources (placed in the low slots at rename) and may name physical
	// registers belonging to flushed catalyst µ-ops. A consecutive pair's
	// sources were all resolved against a current RAT and are kept.
	if u.isNCSF {
		for slot := int(u.ownSrcs); slot < int(u.numSrc); slot++ {
			preg := u.srcPhys[slot]
			if preg >= 0 && !p.regReady[preg] && u.pendSrcs > 0 {
				u.pendSrcs--
			}
			u.srcPhys[slot] = invalidReg
		}
		u.numSrc = u.ownSrcs
		if u.pendSrcs == 0 && u.st == stDispatched {
			p.ready.add(u)
		}
	}
	if u.addrKnown && u.isStore() {
		p.cacheStoreAccesses(u)
	}
}
