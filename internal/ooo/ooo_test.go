package ooo

import (
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/trace"
)

// recordingFor assembles a program and records its committed stream
// (maxInsts = 0: until it halts) for the pipeline to replay.
func recordingFor(t testing.TB, src string, maxInsts uint64) *trace.Recording {
	t.Helper()
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return recordMachine(t, emu.New(prog), maxInsts)
}

// recordMachine records a machine's committed stream.
func recordMachine(t testing.TB, m *emu.Machine, maxInsts uint64) *trace.Recording {
	t.Helper()
	rec, err := trace.Record(trace.NewLive(m, maxInsts))
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	return rec
}

// runMode simulates src under the given fusion mode.
func runMode(t *testing.T, src string, mode fusion.Mode, maxInsts uint64) *Stats {
	t.Helper()
	p := New(DefaultConfig(mode), recordingFor(t, src, maxInsts))
	st, err := p.Run()
	if err != nil {
		t.Fatalf("run (%v): %v", mode, err)
	}
	return st
}

// loopSum is a simple dependent-ALU loop.
const loopSum = `
_start:
	li t0, 2000
	li t1, 0
loop:
	add t1, t1, t0
	addi t0, t0, -1
	bnez t0, loop
	li a7, 93
	mv a0, t1
	ecall
`

// pairedLoads streams through an array with back-to-back pair-able loads.
const pairedLoads = `
	.data
arr:
	.zero 4096
	.text
_start:
	li t0, 200        # iterations
	la t1, arr
outer:
	li t2, 0
inner:
	add t3, t1, t2
	ld a0, 0(t3)
	ld a1, 8(t3)
	ld a2, 16(t3)
	ld a3, 24(t3)
	add a4, a0, a1
	add a5, a2, a3
	addi t2, t2, 32
	li t4, 2048
	blt t2, t4, inner
	addi t0, t0, -1
	bnez t0, outer
	li a7, 93
	li a0, 0
	ecall
`

// ncsfLoads has same-line loads separated by ALU work: only NCSF captures
// them (the catalyst has no hazards with the tail).
const ncsfLoads = `
	.data
arr:
	.zero 4096
	.text
_start:
	li t0, 2000
	la t1, arr
loop:
	ld a0, 0(t1)
	add a2, a0, t0
	xor a3, a2, t0
	and a4, a3, a2
	ld a1, 16(t1)
	add a5, a1, a4
	addi t0, t0, -1
	bnez t0, loop
	li a7, 93
	li a0, 0
	ecall
`

// storePressure fills memory with dependent stores: SQ pressure dominates.
const storePressure = `
	.data
buf:
	.zero 8192
	.text
_start:
	li t0, 100
outer:
	la t1, buf
	li t2, 0
inner:
	sd t2, 0(t1)
	sd t2, 8(t1)
	sd t2, 16(t1)
	sd t2, 24(t1)
	addi t1, t1, 32
	addi t2, t2, 1
	li t3, 256
	blt t2, t3, inner
	addi t0, t0, -1
	bnez t0, outer
	li a7, 93
	li a0, 0
	ecall
`

func TestBaselineRunsToCompletion(t *testing.T) {
	st := runMode(t, loopSum, fusion.ModeNoFusion, 1_000_000)
	if st.CommittedInsts == 0 || st.Cycles == 0 {
		t.Fatalf("nothing simulated: %+v", st)
	}
	// The loop is ~3 instructions per iteration, 2000 iterations.
	if st.CommittedInsts < 6000 {
		t.Errorf("committed %d instructions, want >= 6000", st.CommittedInsts)
	}
	if ipc := st.IPC(); ipc <= 0.1 || ipc > 8 {
		t.Errorf("IPC = %v, out of sane range", ipc)
	}
}

func TestAllModesCommitSameInstructionCount(t *testing.T) {
	var counts []uint64
	for _, m := range fusion.Modes {
		st := runMode(t, pairedLoads, m, 200_000)
		counts = append(counts, st.CommittedInsts)
	}
	for i, c := range counts {
		if c != counts[0] {
			t.Errorf("mode %v committed %d instructions, baseline %d: fusion must not change architecture",
				fusion.Modes[i], c, counts[0])
		}
	}
}

func TestCSFFusionHappens(t *testing.T) {
	st := runMode(t, pairedLoads, fusion.ModeCSFSBR, 200_000)
	if st.CSFLoadPairs == 0 {
		t.Fatalf("no consecutive load pairs fused: %+v", st)
	}
	base := runMode(t, pairedLoads, fusion.ModeNoFusion, 200_000)
	if st.IPC() < base.IPC() {
		t.Errorf("CSF-SBR IPC %.3f < baseline %.3f", st.IPC(), base.IPC())
	}
}

func TestNoFusionInBaseline(t *testing.T) {
	st := runMode(t, pairedLoads, fusion.ModeNoFusion, 100_000)
	if st.TotalMemPairs() != 0 || st.FusedIdiom != 0 || st.FusedMemIdiom != 0 {
		t.Errorf("baseline fused something: %+v", st)
	}
}

func TestHeliosFusesNonConsecutive(t *testing.T) {
	st := runMode(t, ncsfLoads, fusion.ModeHelios, 200_000)
	if st.NCSFLoadPairs == 0 {
		t.Fatalf("Helios fused no NCSF pairs: preds=%d matches=%d trainings=%d",
			st.FusionPredictions, st.UCHMatches, st.FPTrainings)
	}
	if st.Accuracy() < 0.95 {
		t.Errorf("fusion accuracy = %.3f, want >= 0.95", st.Accuracy())
	}
}

func TestOracleAtLeastAsManyPairsAsHelios(t *testing.T) {
	helios := runMode(t, ncsfLoads, fusion.ModeHelios, 200_000)
	oracle := runMode(t, ncsfLoads, fusion.ModeOracle, 200_000)
	if oracle.TotalMemPairs() < helios.TotalMemPairs() {
		t.Errorf("oracle pairs %d < helios pairs %d",
			oracle.TotalMemPairs(), helios.TotalMemPairs())
	}
}

func TestStorePairFusionRelievesSQPressure(t *testing.T) {
	base := runMode(t, storePressure, fusion.ModeNoFusion, 300_000)
	fusedSt := runMode(t, storePressure, fusion.ModeCSFSBR, 300_000)
	if fusedSt.CSFStorePairs == 0 {
		t.Fatalf("no store pairs fused: %+v", fusedSt)
	}
	if base.StallSQ == 0 {
		t.Skip("baseline shows no SQ pressure; machine too large for this kernel")
	}
	if fusedSt.StallSQ >= base.StallSQ {
		t.Errorf("SQ stalls did not drop: base %d, fused %d", base.StallSQ, fusedSt.StallSQ)
	}
	if fusedSt.IPC() <= base.IPC() {
		t.Errorf("store fusion IPC %.3f <= baseline %.3f", fusedSt.IPC(), base.IPC())
	}
}

func TestRISCVFusionIdioms(t *testing.T) {
	// li (lui+addi) and LEA idioms in a loop.
	src := `
	_start:
		li t0, 1000
	loop:
		lui t1, 0x12
		addi t1, t1, 52
		slli t2, t0, 3
		add t2, t2, t1
		addi t0, t0, -1
		bnez t0, loop
		li a7, 93
		li a0, 0
		ecall
	`
	st := runMode(t, src, fusion.ModeRISCVFusion, 100_000)
	if st.FusedIdiom == 0 {
		t.Fatalf("no idioms fused: %+v", st)
	}
	if st.TotalMemPairs() != 0 {
		t.Error("RISCVFusion must not fuse memory pairs")
	}
}

func TestBranchPredictionEngages(t *testing.T) {
	st := runMode(t, loopSum, fusion.ModeNoFusion, 100_000)
	if st.Branches == 0 {
		t.Fatal("no branches observed")
	}
	// A 2000-iteration loop is nearly perfectly predictable.
	rate := float64(st.BranchMispredicts) / float64(st.Branches)
	if rate > 0.05 {
		t.Errorf("mispredict rate = %.3f, want <= 0.05", rate)
	}
}

func TestStoreLoadForwarding(t *testing.T) {
	src := `
		.data
	buf:
		.zero 64
		.text
	_start:
		li t0, 1000
		la t1, buf
	loop:
		sd t0, 0(t1)
		ld t2, 0(t1)
		addi t0, t0, -1
		bnez t0, loop
		li a7, 93
		li a0, 0
		ecall
	`
	st := runMode(t, src, fusion.ModeNoFusion, 100_000)
	if st.STLForwards == 0 {
		t.Errorf("no store-to-load forwarding observed: %+v", st)
	}
}

func TestMaxUopsBound(t *testing.T) {
	cfg := DefaultConfig(fusion.ModeNoFusion)
	cfg.MaxUops = 500
	p := New(cfg, recordingFor(t, loopSum, 1_000_000))
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedInsts < 500 || st.CommittedInsts > 520 {
		t.Errorf("committed %d, want ≈ 500", st.CommittedInsts)
	}
}

func TestSmallMachineStillCorrect(t *testing.T) {
	cfg := DefaultConfig(fusion.ModeHelios)
	cfg.ROBSize = 32
	cfg.IQSize = 16
	cfg.LQSize = 8
	cfg.SQSize = 4
	cfg.PhysRegs = 64
	cfg.AQSize = 16
	p := New(cfg, recordingFor(t, pairedLoads, 50_000))
	st, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	big := runMode(t, pairedLoads, fusion.ModeHelios, 50_000)
	if st.CommittedInsts != big.CommittedInsts {
		t.Errorf("small machine committed %d, big %d", st.CommittedInsts, big.CommittedInsts)
	}
	if st.IPC() > big.IPC() {
		t.Errorf("small machine faster (%.3f) than big (%.3f)?", st.IPC(), big.IPC())
	}
}

func TestDependentLoadsNotFused(t *testing.T) {
	// Pointer chase: each load feeds the next; nothing can pair.
	src := `
		.data
	cell:
		.dword cell
		.text
	_start:
		li t0, 5000
		la t1, cell
	loop:
		ld t1, 0(t1)
		addi t0, t0, -1
		bnez t0, loop
		li a7, 93
		li a0, 0
		ecall
	`
	st := runMode(t, src, fusion.ModeHelios, 100_000)
	if st.CSFLoadPairs+st.NCSFLoadPairs > 0 {
		// Self-chasing loads all hit the same line; the UCH will find
		// matches but rename must unfuse every attempt (deadlock).
		t.Errorf("dependent loads were fused: %+v", st)
	}
}

func TestFigure9StallAccounting(t *testing.T) {
	st := runMode(t, storePressure, fusion.ModeNoFusion, 200_000)
	if st.StallCycles() == 0 {
		t.Skip("no structural stalls on this machine")
	}
	if st.StallCycles() > st.Cycles {
		t.Errorf("stall cycles %d exceed total cycles %d", st.StallCycles(), st.Cycles)
	}
}
