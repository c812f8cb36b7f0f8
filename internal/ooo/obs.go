package ooo

import (
	"fmt"

	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/obs"
	"helios/internal/uop"
)

// obsEmit builds the observability event for a retiring or squashed
// µ-op and hands it to the observer. Only reached behind a p.obs nil
// check, so the disabled hot path never sees the Event construction.
// An observer with no per-µ-op stream attached (interval metrics only)
// gets no event at all.
//
// Stage-cycle mapping: the model decodes in the cycle it fetches and
// dispatches in the cycle it renames (AQ and ROB insertion are the
// respective stage exits), so fetch==decode and rename==dispatch in the
// O3PipeView output; unreached stages stay 0.
//
//helios:hotalloc-ok obs-enabled path only, always behind a p.obs nil check (pinned alloc-free by TestCommitObsOffNoAllocs); allocates only on a disassembly-cache miss, at most once per static PC and instruction
func (p *Pipeline) obsEmit(u *pUop, retired bool) {
	if !p.obs.Traces() {
		return
	}
	ev := obs.Event{
		Seq:          u.seq,
		PC:           u.r.PC,
		Disasm:       p.disasm(u.r),
		Fetch:        u.decodedAt,
		Decode:       u.decodedAt,
		Rename:       u.renamedAt,
		Dispatch:     u.renamedAt,
		Issue:        u.issuedAt,
		Complete:     u.completeAt,
		Mispredicted: u.mispredicted,
	}
	if u.kind != uop.FuseNone && u.tailR != nil {
		ev.Fused = u.kind.String()
		ev.TailSeq = u.tailR.Seq
		ev.TailPC = u.tailR.PC
		ev.PairDistance = u.pairDistance
		ev.PairCategory = u.pairCat.String()
		ev.Predicted = u.usedPred
		ev.Unfused = u.unfused
	}
	if retired {
		ev.Retire = p.cycle
		p.obs.Retire(&ev)
		return
	}
	ev.Squashed = true
	ev.SquashCycle = p.cycle
	p.obs.Squash(&ev)
}

// disasmEntry is one disassembly-cache slot: the instruction last seen
// at a static PC and its rendering.
type disasmEntry struct {
	inst isa.Inst
	text string
}

// disasm returns r's assembly text from the per-PC cache, made on first
// use. It renders again whenever the PC holds a different instruction
// than the cached one, so a PC that maps to several instructions (a
// synthetic or hand-built stream) still prints each correctly.
func (p *Pipeline) disasm(r *emu.Retired) string {
	if p.disasmCache == nil {
		p.disasmCache = make(map[uint64]disasmEntry)
	}
	e, ok := p.disasmCache[r.PC]
	if !ok || e.inst != r.Inst {
		e = disasmEntry{r.Inst, fmt.Sprint(r.Inst)}
		p.disasmCache[r.PC] = e
	}
	return e.text
}

// obsSample snapshots the cumulative engine counters for the interval
// sampler. The observer differences consecutive snapshots into rates.
func (p *Pipeline) obsSample() {
	c := p.mem.Counters()
	p.obs.Sample(obs.IntervalStats{
		Cycle:             p.cycle,
		Insts:             p.st.CommittedInsts,
		Uops:              p.st.CommittedUops,
		MemPairs:          p.st.TotalMemPairs(),
		Idioms:            p.st.FusedIdiom + p.st.FusedMemIdiom,
		FusionPredictions: p.st.FusionPredictions,
		FusionMispredicts: p.st.FusionMispredicts,
		Branches:          p.st.Branches,
		BranchMispredicts: p.st.BranchMispredicts,
		BTBMisses:         p.btb.Misses,
		L1DMisses:         c.L1DMisses,
		L2Misses:          c.L2Misses,
		LLCMisses:         c.LLCMisses,
		Flushes:           p.st.Flushes,
		ROBOcc:            uint64(p.rob.len()),
		IQOcc:             uint64(p.iqCount),
		LQOcc:             uint64(len(p.lq)),
		SQOcc:             uint64(len(p.sq)),
		AQOcc:             uint64(p.aq.len()),
		TDRetiring:        p.st.TopDown.Retiring,
		TDFusedRetiring:   p.st.TopDown.FusedRetiring,
		TDFrontendLat:     p.st.TopDown.FrontendLatency,
		TDFrontendBW:      p.st.TopDown.FrontendBandwidth,
		TDBadSpec:         p.st.TopDown.BadSpeculation,
		TDBackendCore:     p.st.TopDown.BackendCore,
		TDBackendMem:      p.st.TopDown.BackendMemory(),
	})
}
