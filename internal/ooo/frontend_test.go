package ooo

import (
	"testing"

	"helios/internal/fusion"
)

// Calls and returns: the RAS should predict returns almost perfectly, so
// a call-heavy kernel shows near-zero mispredicts.
func TestRASPredictsReturns(t *testing.T) {
	src := `
	_start:
		li s1, 3000
	loop:
		call f
		call g
		addi s1, s1, -1
		bnez s1, loop
		li a7, 93
		li a0, 0
		ecall
	f:
		addi s2, s2, 1
		ret
	g:
		addi s3, s3, 2
		ret
	`
	st := runMode(t, src, fusion.ModeNoFusion, 100_000)
	rate := float64(st.BranchMispredicts) / float64(st.CommittedInsts)
	if rate > 0.01 {
		t.Errorf("mispredict rate %.4f on call/return code; RAS not effective", rate)
	}
}

// Indirect jumps through a register (computed goto): the BTB learns stable
// targets; alternating targets mispredict.
func TestIndirectJumpPrediction(t *testing.T) {
	src := `
	_start:
		li s1, 4000
		la s2, tgt
	loop:
		jr s2           # always the same target: BTB learns it
	tgt:
		addi s3, s3, 1
		addi s1, s1, -1
		bnez s1, loop
		li a7, 93
		li a0, 0
		ecall
	`
	st := runMode(t, src, fusion.ModeNoFusion, 100_000)
	// After warmup the BTB hits; only cold misses mispredict.
	if st.BranchMispredicts > 50 {
		t.Errorf("stable indirect jump mispredicted %d times", st.BranchMispredicts)
	}
}

// A large code footprint forces instruction cache misses; the model must
// still make progress and the L1I must record misses.
func TestICacheMisses(t *testing.T) {
	// Generate a long straight-line body (several KiB of code) inside a loop.
	src := "_start:\n\tli s1, 4\nloop:\n"
	for i := 0; i < 10000; i++ { // 40 KiB of code: exceeds the 32 KiB L1I
		src += "\taddi s2, s2, 1\n"
	}
	// The backward jump spans ~40 KiB: beyond B-type range, so use jal.
	src += "\taddi s1, s1, -1\n\tbeqz s1, done\n\tj loop\ndone:\n\tli a7, 93\n\tli a0, 0\n\tecall\n"
	p := New(DefaultConfig(fusion.ModeNoFusion), recordingFor(t, src, 80_000))
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem().L1I().Misses == 0 {
		t.Error("no instruction cache misses on a 40KB loop body")
	}
	if st.IPC() <= 0 {
		t.Error("no progress")
	}
}

// Oracle mode must survive pipeline flushes (store-set violations) thanks
// to its window re-priming.
func TestOracleSurvivesFlushes(t *testing.T) {
	// Store-then-load aliasing through two pointers provokes violations.
	src := `
	.data
	.align 6
buf:
	.zero 4096
	.text
_start:
	la s0, buf
	li s1, 4000
	li s4, 0
	li s7, 2040
loop:
	add t0, s0, s4
	sd s1, 0(t0)
	mul t3, s1, s1   # delay the store address? no: delay the data
	add t1, s0, s4
	ld t2, 0(t1)     # reads what the store just wrote
	add s2, s2, t2
	addi s4, s4, 8
	and s4, s4, s7
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st := runMode(t, src, fusion.ModeOracle, 100_000)
	base := runMode(t, src, fusion.ModeNoFusion, 100_000)
	if st.CommittedInsts != base.CommittedInsts {
		t.Errorf("oracle committed %d, baseline %d", st.CommittedInsts, base.CommittedInsts)
	}
}

// Memory idioms (lui+load) carry a memory access: they must take an LQ
// entry and count as memory-carrying idiom fusions.
func TestMemIdiomFusion(t *testing.T) {
	src := `
	.data
val:
	.dword 42
	.text
_start:
	li s1, 4000
loop:
	lui t0, 0x100
	ld t0, 0(t0)     # load-global idiom: lui + ld with rd==rs1==rd
	add s2, s2, t0
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st := runMode(t, src, fusion.ModeRISCVFusionPP, 80_000)
	if st.FusedMemIdiom == 0 {
		t.Errorf("load-global idiom not fused: %+v", st.FusedIdiom)
	}
}

// CSF-SBR must reject pairs whose base register is rewritten between the
// two accesses (they are not statically contiguous).
func TestCSFRejectsRewrittenBase(t *testing.T) {
	src := `
	.data
buf:
	.zero 4096
	.text
_start:
	la s0, buf
	li s1, 4000
	li s7, 2040
	li s4, 0
loop:
	add t0, s0, s4
	ld t1, 0(t0)
	addi t0, t0, 8   # base rewritten between the loads
	ld t2, 0(t0)
	add s2, t1, t2
	addi s4, s4, 16
	and s4, s4, s7
	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
	`
	st := runMode(t, src, fusion.ModeCSFSBR, 80_000)
	if st.CSFLoadPairs > 0 {
		t.Errorf("CSF fused loads across a base rewrite: %d", st.CSFLoadPairs)
	}
}
