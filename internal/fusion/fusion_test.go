package fusion

import (
	"testing"

	"helios/internal/emu"
	"helios/internal/isa"
	"helios/internal/trace"
	"helios/internal/uop"
)

func inst(op isa.Opcode, rd, rs1, rs2 isa.Reg, imm int64) isa.Inst {
	return isa.Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm}
}

func TestMatchNonMemIdioms(t *testing.T) {
	cases := []struct {
		name string
		a, b isa.Inst
		want Idiom
	}{
		{
			"lea",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 3),
			inst(isa.OpADD, isa.T0, isa.T0, isa.A1, 0),
			IdiomLEA,
		},
		{
			"lea shift too large",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 4),
			inst(isa.OpADD, isa.T0, isa.T0, isa.A1, 0),
			IdiomNone,
		},
		{
			"lea different dest",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 3),
			inst(isa.OpADD, isa.T1, isa.T0, isa.A1, 0),
			IdiomNone,
		},
		{
			"clear upper word",
			inst(isa.OpSLLI, isa.T0, isa.A0, 0, 32),
			inst(isa.OpSRLI, isa.T0, isa.T0, 0, 32),
			IdiomClearUpper,
		},
		{
			"load imm",
			inst(isa.OpLUI, isa.T0, 0, 0, 0x12000),
			inst(isa.OpADDIW, isa.T0, isa.T0, 0, 0x345),
			IdiomLoadImm,
		},
		{
			"auipc addi",
			inst(isa.OpAUIPC, isa.T0, 0, 0, 0x1000),
			inst(isa.OpADDI, isa.T0, isa.T0, 0, 8),
			IdiomAuipcAddi,
		},
		{
			"load global",
			inst(isa.OpLUI, isa.T0, 0, 0, 0x12000),
			inst(isa.OpLD, isa.T0, isa.T0, 0, 16),
			IdiomLoadGlobal,
		},
		{
			"indexed load",
			inst(isa.OpADD, isa.T0, isa.A0, isa.A1, 0),
			inst(isa.OpLD, isa.T0, isa.T0, 0, 0),
			IdiomIndexedLoad,
		},
		{
			"indexed load different dest rejected",
			inst(isa.OpADD, isa.T0, isa.A0, isa.A1, 0),
			inst(isa.OpLD, isa.T1, isa.T0, 0, 0),
			IdiomNone,
		},
		{
			"x0 destination rejected",
			inst(isa.OpSLLI, isa.Zero, isa.A0, 0, 3),
			inst(isa.OpADD, isa.Zero, isa.Zero, isa.A1, 0),
			IdiomNone,
		},
	}
	for _, c := range cases {
		if got := MatchNonMemIdiom(c.a, c.b); got != c.want {
			t.Errorf("%s: MatchNonMemIdiom = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestMatchMemPair(t *testing.T) {
	ld := func(rd isa.Reg, imm int64) isa.Inst { return inst(isa.OpLD, rd, isa.A0, 0, imm) }
	sd := func(rs2 isa.Reg, imm int64) isa.Inst { return inst(isa.OpSD, 0, isa.A0, rs2, imm) }

	if id, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T1, 8), false); !ok || id != IdiomLoadPair {
		t.Error("contiguous load pair not matched")
	}
	if id, ok := MatchMemPair(ld(isa.T0, 8), ld(isa.T1, 0), false); !ok || id != IdiomLoadPair {
		t.Error("descending contiguous load pair not matched")
	}
	if _, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T1, 16), false); ok {
		t.Error("gap pair must not match statically")
	}
	if _, ok := MatchMemPair(ld(isa.A0, 0), ld(isa.T1, 8), false); ok {
		t.Error("dependent loads (base overwritten) must not match")
	}
	if _, ok := MatchMemPair(ld(isa.T0, 0), ld(isa.T0, 8), false); ok {
		t.Error("same destination must not match")
	}
	if id, ok := MatchMemPair(sd(isa.T0, 0), sd(isa.T1, 8), false); !ok || id != IdiomStorePair {
		t.Error("store pair not matched")
	}
	// Different base registers never match statically.
	other := inst(isa.OpLD, isa.T1, isa.A1, 0, 8)
	if _, ok := MatchMemPair(ld(isa.T0, 0), other, false); ok {
		t.Error("different base must not match")
	}
	// Asymmetric pair: ld + lw contiguous.
	lw := inst(isa.OpLW, isa.T1, isa.A0, 0, 8)
	if _, ok := MatchMemPair(ld(isa.T0, 0), lw, false); ok {
		t.Error("asymmetric must not match when disallowed")
	}
	if id, ok := MatchMemPair(ld(isa.T0, 0), lw, true); !ok || id != IdiomLoadPair {
		t.Error("asymmetric should match when allowed")
	}
}

// mem builds a Retired memory record.
func mem(seq uint64, op isa.Opcode, base isa.Reg, rd isa.Reg, ea uint64) emu.Retired {
	i := isa.Inst{Op: op, Rs1: base}
	if op.IsLoad() {
		i.Rd = rd
	} else {
		i.Rs2 = rd
	}
	return emu.Retired{Seq: seq, PC: 0x1000 + seq*4, Inst: i, EA: ea, MemSize: op.MemSize()}
}

// alu builds a Retired ALU record rd = rs1 op rs2.
func alu(seq uint64, rd, rs1, rs2 isa.Reg) emu.Retired {
	return emu.Retired{Seq: seq, PC: 0x1000 + seq*4, Inst: inst(isa.OpADD, rd, rs1, rs2, 0)}
}

func TestTailDependsOnHead(t *testing.T) {
	// ld x1 <- [x2]; add x3 = x1+1; ld x4 <- [x3]: deadlock.
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 3, 1, 0),
		mem(2, isa.OpLD, 3, 4, 0x108),
	}
	if !TailDependsOnHead(recs) {
		t.Error("indirect dependence not detected")
	}
	// Independent catalyst.
	recs2 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 5, 6, 7),
		mem(2, isa.OpLD, 2, 4, 0x108),
	}
	if TailDependsOnHead(recs2) {
		t.Error("false dependence detected")
	}
	// Taint killed by overwrite: x3 tainted then overwritten with clean value.
	recs3 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 3, 1, 0), // x3 tainted
		alu(2, 3, 6, 7), // x3 overwritten clean
		mem(3, isa.OpLD, 3, 4, 0x108),
	}
	if TailDependsOnHead(recs3) {
		t.Error("overwritten taint should clear")
	}
	// Direct dependence (tail base is head dest).
	recs4 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		mem(1, isa.OpLD, 1, 4, 0x108),
	}
	if !TailDependsOnHead(recs4) {
		t.Error("direct dependence not detected")
	}
}

func TestCatalystPredicates(t *testing.T) {
	recs := []emu.Retired{
		mem(0, isa.OpSD, 2, 1, 0x100),
		mem(1, isa.OpSD, 2, 5, 0x200),
		mem(2, isa.OpSD, 2, 4, 0x108),
	}
	if !CatalystHasStore(recs) {
		t.Error("store in catalyst missed")
	}
	recs[1] = alu(1, 5, 6, 7)
	if CatalystHasStore(recs) {
		t.Error("false store in catalyst")
	}
	fence := emu.Retired{Seq: 1, Inst: isa.Inst{Op: isa.OpFENCE}}
	recs[1] = fence
	if !CatalystHasSerializing(recs) {
		t.Error("serializing in catalyst missed")
	}
}

func TestCatalystRegHazard(t *testing.T) {
	// Catalyst writes x3; tail reads x3: RaW.
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 3, 6, 7),
		mem(2, isa.OpLD, 3, 4, 0x108),
	}
	if !CatalystHasRegHazard(recs) {
		t.Error("RaW hazard missed")
	}
	// Catalyst reads x4; tail writes x4: WaR.
	recs2 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 5, 4, 7),
		mem(2, isa.OpLD, 2, 4, 0x108),
	}
	if !CatalystHasRegHazard(recs2) {
		t.Error("WaR hazard missed")
	}
	recs3 := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		alu(1, 5, 6, 7),
		mem(2, isa.OpLD, 2, 4, 0x108),
	}
	if CatalystHasRegHazard(recs3) {
		t.Error("false hazard")
	}
}

func TestOracleConsecutivePair(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	if _, ok := o.Observe(mem(0, isa.OpLD, 2, 1, 0x100)); ok {
		t.Error("first load cannot pair")
	}
	p, ok := o.Observe(mem(1, isa.OpLD, 2, 3, 0x108))
	if !ok {
		t.Fatal("contiguous pair not found")
	}
	if p.HeadSeq != 0 || p.TailSeq != 1 || !p.Consecutive() || p.Kind != uop.FuseLoadPair {
		t.Errorf("pairing = %+v", p)
	}
	if p.Category != uop.AddrContiguous || !p.SameBase || !p.Symmetric {
		t.Errorf("pairing attributes = %+v", p)
	}
}

func TestOracleNonConsecutivePair(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	o.Observe(alu(2, 8, 9, 10))
	p, ok := o.Observe(mem(3, isa.OpLD, 11, 3, 0x120)) // different base, same line
	if !ok {
		t.Fatal("NCSF DBR pair not found")
	}
	if p.Distance != 3 || p.SameBase {
		t.Errorf("pairing = %+v", p)
	}
	if p.Category != uop.AddrSameLine {
		t.Errorf("category = %v", p.Category)
	}
}

func TestOracleRejectsDeadlock(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 3, 1, 0))                                 // x3 = f(x1): tainted
	if _, ok := o.Observe(mem(2, isa.OpLD, 3, 4, 0x108)); ok { // base x3
		t.Error("deadlocking pair must not fuse")
	}
}

func TestOracleStoreRules(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	o.Observe(mem(1, isa.OpSD, 2, 5, 0x200)) // intervening store, too far to pair
	if _, ok := o.Observe(mem(2, isa.OpSD, 2, 4, 0x108)); ok {
		t.Error("store pair across another store must not fuse")
	}

	o = NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	p, ok := o.Observe(mem(2, isa.OpSD, 2, 4, 0x108))
	if !ok || p.Kind != uop.FuseStorePair {
		t.Error("NCSF store pair with clean catalyst should fuse")
	}

	// DBR stores never fuse.
	o = NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpSD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpSD, 9, 4, 0x108)); ok {
		t.Error("DBR store pair must not fuse")
	}
}

func TestOracleNoDoublePairing(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpLD, 2, 3, 0x108)); !ok {
		t.Fatal("first pair missing")
	}
	// Seq 0 and 1 are used; a third load to the same line must not re-pair
	// with them.
	if p, ok := o.Observe(mem(2, isa.OpLD, 2, 4, 0x110)); ok {
		t.Errorf("third load paired with used µ-op: %+v", p)
	}
	// But a fourth can pair with the third.
	if _, ok := o.Observe(mem(3, isa.OpLD, 2, 5, 0x118)); !ok {
		t.Error("fourth load should pair with third")
	}
}

func TestOracleMaxDistance(t *testing.T) {
	cfg := DefaultPairConfig()
	cfg.MaxDist = 4
	o := NewOracle(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	for i := uint64(1); i <= 4; i++ {
		o.Observe(alu(i, 5, 6, 7))
	}
	if _, ok := o.Observe(mem(5, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("pair beyond MaxDist must not fuse")
	}
}

func TestOracleSerializingBlocks(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(emu.Retired{Seq: 1, Inst: isa.Inst{Op: isa.OpFENCE}})
	if _, ok := o.Observe(mem(2, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("pair across fence must not fuse")
	}
}

func TestOracleRestrictedConfigs(t *testing.T) {
	// ConsecutiveOnly rejects distance-2 pairs.
	cfg := DefaultPairConfig()
	cfg.ConsecutiveOnly = true
	o := NewOracle(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	o.Observe(alu(1, 5, 6, 7))
	if _, ok := o.Observe(mem(2, isa.OpLD, 2, 3, 0x108)); ok {
		t.Error("ConsecutiveOnly violated")
	}
	// SameBaseOnly rejects DBR.
	cfg = DefaultPairConfig()
	cfg.SameBaseOnly = true
	o = NewOracle(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpLD, 9, 3, 0x108)); ok {
		t.Error("SameBaseOnly violated")
	}
	// ContiguousOnly rejects same-line gaps.
	cfg = DefaultPairConfig()
	cfg.ContiguousOnly = true
	o = NewOracle(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpLD, 2, 3, 0x110)); ok {
		t.Error("ContiguousOnly violated")
	}
	// SymmetricOnly rejects mixed sizes.
	cfg = DefaultPairConfig()
	cfg.SymmetricOnly = true
	o = NewOracle(cfg)
	o.Observe(mem(0, isa.OpLD, 2, 1, 0x100))
	if _, ok := o.Observe(mem(1, isa.OpLW, 2, 3, 0x108)); ok {
		t.Error("SymmetricOnly violated")
	}
}

func TestModePredicates(t *testing.T) {
	if ModeNoFusion.NonMemIdioms() || ModeNoFusion.ConsecutiveMemPairs() {
		t.Error("NoFusion must fuse nothing")
	}
	if !ModeRISCVFusion.NonMemIdioms() || ModeRISCVFusion.ConsecutiveMemPairs() {
		t.Error("RISCVFusion is non-memory only")
	}
	if ModeCSFSBR.NonMemIdioms() || !ModeCSFSBR.ConsecutiveMemPairs() {
		t.Error("CSF-SBR is memory only")
	}
	if !ModeRISCVFusionPP.NonMemIdioms() || !ModeRISCVFusionPP.ConsecutiveMemPairs() {
		t.Error("RISCVFusion++ fuses everything static")
	}
	if !ModeHelios.Predictive() || ModeOracle.Predictive() {
		t.Error("only Helios is predictive")
	}
	if !ModeOracle.OraclePairs() || ModeHelios.OraclePairs() {
		t.Error("only Oracle uses perfect pairing")
	}
	for _, m := range Modes {
		got, ok := ModeByName(m.String())
		if !ok || got != m {
			t.Errorf("ModeByName(%q) = %v, %v", m.String(), got, ok)
		}
	}
}

func TestAnalyzeTrace(t *testing.T) {
	// Build a small synthetic trace: a contiguous consecutive load pair,
	// an NCSF pair with one ALU between, and a lone load.
	recs := []emu.Retired{
		mem(0, isa.OpLD, 2, 1, 0x100),
		mem(1, isa.OpLD, 2, 3, 0x108), // CSF contiguous with 0
		alu(2, 5, 6, 7),
		mem(3, isa.OpLD, 2, 4, 0x200),
		alu(4, 8, 9, 10),
		mem(5, isa.OpLD, 2, 11, 0x210),  // NCSF same line with 3
		mem(6, isa.OpLD, 2, 12, 0x4000), // lone
	}
	// Give the records valid contiguous immediates so static matching sees
	// the first pair too.
	recs[0].Inst.Imm = 0
	recs[1].Inst.Imm = 8
	rec, err := trace.FromRecords("synthetic", 0, recs)
	if err != nil {
		t.Fatal(err)
	}
	st := AnalyzeTrace(rec, DefaultPairConfig())

	if st.TotalUops != 7 || st.MemUops != 5 {
		t.Errorf("totals = %d/%d", st.TotalUops, st.MemUops)
	}
	if st.MemPairUops != 2 {
		t.Errorf("MemPairUops = %d, want 2", st.MemPairUops)
	}
	if st.CSFPairs != 1 || st.NCSFPairs != 1 {
		t.Errorf("pairs = %d CSF, %d NCSF; want 1/1", st.CSFPairs, st.NCSFPairs)
	}
	if st.CSFByCategory[uop.AddrContiguous] != 1 {
		t.Error("CSF category wrong")
	}
	if st.NCSFByCategory[uop.AddrSameLine] != 1 {
		t.Error("NCSF category wrong")
	}
	if st.MeanDistance() != 1.5 {
		t.Errorf("mean distance = %v, want 1.5", st.MeanDistance())
	}
}
