package fusion

import (
	"strings"
	"testing"

	"helios/internal/emu"
	"helios/internal/isa"
)

// oracleFuzzOps are the opcodes FuzzOracleMatchesReference draws from:
// every load and store width, two ALU ops and a fence, weighted towards
// memory so pairs and catalyst stores are common.
var oracleFuzzOps = []isa.Opcode{
	isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLD, isa.OpLBU, isa.OpLHU, isa.OpLWU, isa.OpLD,
	isa.OpSB, isa.OpSH, isa.OpSW, isa.OpSD, isa.OpSD,
	isa.OpADD, isa.OpADDI, isa.OpFENCE,
}

// oracleFuzzRecord builds one record from four fuzz bytes: b[0] picks the
// opcode, b[1] the registers (from a few, so same-base pairs and catalyst
// writes to a base are common), b[2] the cache line (one of four) and
// offset, aligned to the access size.
func oracleFuzzRecord(seq uint64, b []byte) emu.Retired {
	op := oracleFuzzOps[int(b[0])%len(oracleFuzzOps)]
	in := isa.Inst{Op: op, Rd: isa.Reg(1 + b[1]&7), Rs1: isa.Reg(1 + b[1]>>3&3), Rs2: isa.Reg(1 + b[1]>>5)}
	r := emu.Retired{Seq: seq, PC: 0x1000 + seq*4, Inst: in, MemSize: op.MemSize()}
	if r.MemSize != 0 {
		off := uint64(b[2]&63) &^ uint64(r.MemSize-1)
		r.EA = 0x8000 + uint64(b[2]>>6)*64 + off
	}
	return r
}

// FuzzOracleMatchesReference feeds the preallocated-window Oracle and the
// map-based reference the same streams, under each PairConfig flag and a
// short MaxDist, and requires the same (Pairing, ok) from every Observe.
// Each four-byte step is one record with the next Seq; a step whose
// fourth byte is 0xff first Resets both and rewinds Seq by up to 80, the
// way the pipeline re-primes the oracle after a flush.
func FuzzOracleMatchesReference(f *testing.F) {
	f.Add([]byte("\x03\x00\x00\x00\x03\x00\x08\x00\x0d\x00\x00\x00\x0b\x00\x10\x00"))
	f.Add([]byte("\x00\x09\x41\x00\x0e\x01\x00\x00\x0f\x00\x00\x00\x01\x12\x42\x00\x0a\x00\x00\xff\x0b\x00\x10\x00"))
	// Enough load pairs that the window slides down twice.
	f.Add([]byte(strings.Repeat("\x03\x00\x00\x00\x0d\x00\x00\x00\x03\x00\x08\x00", 50)))
	configs := []PairConfig{DefaultPairConfig(), {MaxDist: 3}}
	for _, set := range []func(*PairConfig){
		func(c *PairConfig) { c.ConsecutiveOnly = true },
		func(c *PairConfig) { c.SameBaseOnly = true },
		func(c *PairConfig) { c.ContiguousOnly = true },
		func(c *PairConfig) { c.SymmetricOnly = true },
	} {
		c := DefaultPairConfig()
		set(&c)
		configs = append(configs, c)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, cfg := range configs {
			got, ref := NewOracle(cfg), newRefOracle(cfg)
			seq := uint64(100)
			for step, b := 0, data; len(b) >= 4; step, b = step+1, b[4:] {
				if b[3] == 0xff {
					got.Reset()
					ref.Reset()
					seq -= uint64(b[2]) % 81
				}
				r := oracleFuzzRecord(seq, b)
				seq++
				p, ok := got.Observe(r)
				wp, wok := ref.Observe(r)
				if ok != wok || p != wp {
					t.Fatalf("cfg %+v step %d (seq %d, %v): got (%+v, %v), reference (%+v, %v)",
						cfg, step, r.Seq, r.Inst.Op, p, ok, wp, wok)
				}
			}
		}
	})
}

// TestOracleObserveNoAllocs pins the copy-free window: once warm, Observe
// allocates nothing, and neither does a Reset with the re-prime that
// follows it on a pipeline flush.
func TestOracleObserveNoAllocs(t *testing.T) {
	o := NewOracle(DefaultPairConfig())
	var seq uint64
	next := func() emu.Retired {
		b := []byte{byte(seq * 7), byte(seq * 5), byte(seq * 11)}
		r := oracleFuzzRecord(seq, b)
		seq++
		return r
	}
	for i := 0; i < 1000; i++ {
		o.Observe(next())
	}
	if a := testing.AllocsPerRun(1000, func() { o.Observe(next()) }); a != 0 {
		t.Errorf("Observe allocates %.1f per call, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() {
		o.Reset()
		seq -= 65
		for i := 0; i < 65; i++ {
			o.Observe(next())
		}
	}); a != 0 {
		t.Errorf("Reset and re-prime allocate %.1f per round, want 0", a)
	}
}
