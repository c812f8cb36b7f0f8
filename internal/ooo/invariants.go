package ooo

import (
	"context"
	"fmt"

	"helios/internal/uop"
)

// CheckInvariants validates the pipeline's internal consistency. It is
// exported for tests (and cheap enough to call between cycles in debug
// runs): structure occupancies within capacity, no physical register both
// free and mapped, RAT entries valid, every in-flight fused µ-op
// well-formed.
func (p *Pipeline) CheckInvariants() error {
	if p.rob.len() > p.cfg.ROBSize {
		return fmt.Errorf("ROB occupancy %d > %d", p.rob.len(), p.cfg.ROBSize)
	}
	if p.aq.len() > p.cfg.AQSize {
		return fmt.Errorf("AQ occupancy %d > %d", p.aq.len(), p.cfg.AQSize)
	}
	if p.iqCount > p.cfg.IQSize {
		return fmt.Errorf("IQ occupancy %d > %d", p.iqCount, p.cfg.IQSize)
	}
	if len(p.lq) > p.cfg.LQSize {
		return fmt.Errorf("LQ occupancy %d > %d", len(p.lq), p.cfg.LQSize)
	}
	if len(p.sq) > p.cfg.SQSize {
		return fmt.Errorf("SQ occupancy %d > %d", len(p.sq), p.cfg.SQSize)
	}

	// No register is both free and architecturally mapped, and the free
	// list holds no duplicates.
	free := make(map[int32]bool, len(p.freeList))
	for _, r := range p.freeList {
		if r < 0 || int(r) >= p.cfg.PhysRegs {
			return fmt.Errorf("free list holds invalid register %d", r)
		}
		if free[r] {
			return fmt.Errorf("register %d on the free list twice", r)
		}
		free[r] = true
	}
	for arch, r := range p.rat {
		if r < 0 || int(r) >= p.cfg.PhysRegs {
			return fmt.Errorf("RAT[%d] = %d out of range", arch, r)
		}
		if free[r] {
			return fmt.Errorf("RAT[%d] = %d is also on the free list", arch, r)
		}
	}
	for arch, r := range p.cRAT {
		if free[r] {
			return fmt.Errorf("cRAT[%d] = %d is also on the free list", arch, r)
		}
	}

	// ROB entries are in sequence order and fused µ-ops are well-formed.
	var prev uint64
	for i := 0; i < p.rob.len(); i++ {
		u := p.rob.at(i)
		if i > 0 && u.seq <= prev {
			return fmt.Errorf("ROB out of order at %d: %d after %d", i, u.seq, prev)
		}
		prev = u.seq
		if u.st == stKilled || u.st == stCommitted {
			return fmt.Errorf("ROB holds dead µ-op seq=%d st=%d", u.seq, u.st)
		}
		if u.kind != uop.FuseNone && !u.unfused && u.tailR == nil {
			return fmt.Errorf("fused µ-op seq=%d has no tail record", u.seq)
		}
		if u.pendSrcs < 0 || u.pendSrcs > u.numSrc {
			return fmt.Errorf("seq=%d pendSrcs=%d of %d", u.seq, u.pendSrcs, u.numSrc)
		}
		for s := 0; s < int(u.numSrc); s++ {
			r := u.srcPhys[s]
			if r >= 0 && free[r] && u.st == stDispatched {
				return fmt.Errorf("seq=%d reads freed register %d", u.seq, r)
			}
		}
	}

	// The IQ counter matches the dispatched µ-ops, and the ready list is
	// age ordered and complete: every dispatched µ-op with no pending
	// source holds a live ref. Completeness is what makes issuing from
	// the list equivalent to scanning the whole IQ.
	dispatched := 0
	for i := 0; i < p.rob.len(); i++ {
		if p.rob.at(i).st == stDispatched {
			dispatched++
		}
	}
	if p.iqCount != dispatched {
		return fmt.Errorf("IQ count %d != %d dispatched µ-ops", p.iqCount, dispatched)
	}
	inReady := make(map[*pUop]bool, len(p.ready.refs))
	for i, r := range p.ready.refs {
		if i > 0 && r.seq <= p.ready.refs[i-1].seq {
			return fmt.Errorf("ready list out of order at %d: %d after %d",
				i, r.seq, p.ready.refs[i-1].seq)
		}
		if r.live() {
			inReady[r.u] = true
		}
	}
	for i := 0; i < p.rob.len(); i++ {
		u := p.rob.at(i)
		if u.st == stDispatched && u.pendSrcs == 0 && !inReady[u] {
			return fmt.Errorf("ready list misses dispatched µ-op seq=%d", u.seq)
		}
	}

	// loadMayIssue stops its SQ walk at the first store at or past the
	// load, which needs the SQ in age order.
	for i := 1; i < len(p.sq); i++ {
		if p.sq[i].seq <= p.sq[i-1].seq {
			return fmt.Errorf("SQ out of order at %d: %d after %d", i, p.sq[i].seq, p.sq[i-1].seq)
		}
	}

	// Every LQ/SQ occupant is live and present in the ROB's range.
	for _, q := range []struct {
		name string
		s    []*pUop
	}{{"LQ", p.lq}, {"SQ", p.sq}} {
		for _, u := range q.s {
			if u.st == stKilled {
				return fmt.Errorf("%s holds killed µ-op seq=%d", q.name, u.seq)
			}
			if q.name != "SQ" && u.st == stCommitted {
				return fmt.Errorf("%s holds committed µ-op seq=%d", q.name, u.seq)
			}
		}
	}

	// Pending NCSF heads must still be live, fused and unvalidated.
	for _, h := range p.pendingNCSF {
		if h.st == stKilled || h.unfused || h.validated {
			return fmt.Errorf("stale pending NCSF head seq=%d", h.seq)
		}
	}
	if len(p.pendingNCSF) > p.cfg.MaxNCSFNest {
		return fmt.Errorf("pending NCSF %d exceeds nest limit %d",
			len(p.pendingNCSF), p.cfg.MaxNCSFNest)
	}

	// Top-down slot conservation (DESIGN.md §12): every simulated cycle
	// is accounted and every bucket sum matches DispatchWidth × cycles.
	// Holds at every between-cycle point by construction — Move is
	// sum-preserving, so any misaccounting shows up here.
	if p.st.TopDown.Cycles != p.st.Cycles {
		return fmt.Errorf("top-down accounted %d cycles, pipeline ran %d",
			p.st.TopDown.Cycles, p.st.Cycles)
	}
	if err := p.st.TopDown.CheckConservation(); err != nil {
		return err
	}
	return nil
}

// RunChecked is Run with CheckInvariants called every interval cycles;
// it is the harness used by the failure-injection tests. A violation
// surfaces as a FailInvariant SimError with the snapshot attached.
//
//helios:ctx-ok top-of-stack convenience for tests; the chaos driver uses RunCheckedContext
func (p *Pipeline) RunChecked(interval uint64) (*Stats, error) {
	return p.RunCheckedContext(context.Background(), interval)
}

// RunCheckedContext combines invariant sweeps with cooperative
// cancellation; it is the chaos driver's entry point.
func (p *Pipeline) RunCheckedContext(ctx context.Context, interval uint64) (*Stats, error) {
	if interval == 0 {
		interval = 1
	}
	return p.run(ctx, interval)
}
