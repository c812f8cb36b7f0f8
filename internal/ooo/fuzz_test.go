package ooo

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/isa"
	"helios/internal/trace"
)

// genProgram builds a random but always-terminating RISC-V program: a
// counted outer loop whose body is a random mix of ALU operations, loads
// and stores into a scratch buffer, and short forward branches. The mix is
// rich in fuseable patterns (same-base contiguous accesses, shift-add
// addressing) so random programs exercise every fusion path.
func genProgram(r *rand.Rand, bodyLen int) string {
	var b strings.Builder
	b.WriteString(`
	.data
buf:
	.zero 4096
	.text
_start:
	la s0, buf
	li s1, 400       # outer iterations
	li s2, 0
	li s3, 1
	li t0, 3
	li t1, 5
	li t2, 7
	li a0, 11
	li a1, 13
	li a2, 17
loop:
`)
	regs := []string{"t0", "t1", "t2", "a0", "a1", "a2", "s2", "s3"}
	reg := func() string { return regs[r.Intn(len(regs))] }
	skip := 0
	for i := 0; i < bodyLen; i++ {
		if skip > 0 {
			skip--
		}
		switch r.Intn(10) {
		case 0, 1: // ALU reg-reg
			ops := []string{"add", "sub", "xor", "or", "and", "sll", "srl"}
			op := ops[r.Intn(len(ops))]
			if op == "sll" || op == "srl" {
				// Bound the shift amount to keep values tame.
				fmt.Fprintf(&b, "\tandi t3, %s, 15\n\t%s %s, %s, t3\n", reg(), op, reg(), reg())
			} else {
				fmt.Fprintf(&b, "\t%s %s, %s, %s\n", op, reg(), reg(), reg())
			}
		case 2: // ALU immediate
			fmt.Fprintf(&b, "\taddi %s, %s, %d\n", reg(), reg(), r.Intn(64)-32)
		case 3: // shift-add addressing idiom (LEA)
			fmt.Fprintf(&b, "\tslli t4, %s, %d\n\tadd t4, t4, %s\n", reg(), 1+r.Intn(3), reg())
		case 4, 5: // load from the buffer (masked offset)
			off := r.Intn(250) * 8
			fmt.Fprintf(&b, "\tld %s, %d(s0)\n", reg(), off)
		case 6: // adjacent load pair material
			off := r.Intn(240) * 8
			fmt.Fprintf(&b, "\tld t5, %d(s0)\n\tld t6, %d(s0)\n", off, off+8)
		case 7: // store
			off := r.Intn(250) * 8
			fmt.Fprintf(&b, "\tsd %s, %d(s0)\n", reg(), off)
		case 8: // store pair material, split by an ALU op
			off := r.Intn(240) * 8
			fmt.Fprintf(&b, "\tsd %s, %d(s0)\n\txor t3, %s, %s\n\tsd t3, %d(s0)\n",
				reg(), off, reg(), reg(), off+8)
		case 9: // short forward branch over the next instruction
			if skip == 0 {
				lbl := fmt.Sprintf("f%d", i)
				fmt.Fprintf(&b, "\tbeqz %s, %s\n\taddi %s, %s, 1\n%s:\n", reg(), lbl, reg(), reg(), lbl)
				skip = 1
			}
		}
	}
	b.WriteString(`	addi s1, s1, -1
	bnez s1, loop
	li a7, 93
	li a0, 0
	ecall
`)
	return b.String()
}

// TestFuzzAllModesAgree generates random programs and verifies that every
// fusion configuration commits exactly the same architectural instruction
// stream length as the functional emulator retires, with invariants intact
// throughout. This is the central "fusion never changes architecture"
// property of the paper.
func TestFuzzAllModesAgree(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 2
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(int64(seed)*7919 + 17))
			src := genProgram(r, 20+r.Intn(40))
			prog, err := asm.Assemble(src)
			if err != nil {
				t.Fatalf("assemble: %v\n%s", err, src)
			}
			// Reference: functional execution.
			ref := emu.New(prog)
			want, err := ref.Run(3_000_000)
			if err != nil {
				t.Fatalf("emulate: %v", err)
			}
			if !ref.Halted() {
				t.Fatal("random program did not halt")
			}

			for _, mode := range fusion.Modes {
				p := New(DefaultConfig(mode), recordMachine(t, emu.New(prog), 0))
				st, err := p.RunChecked(64)
				if err != nil {
					t.Fatalf("mode %v: %v", mode, err)
				}
				if st.CommittedInsts != want {
					t.Errorf("mode %v committed %d instructions, functional retired %d",
						mode, st.CommittedInsts, want)
				}
			}
		})
	}
}

// FuzzPipelineModesAgree is the native-fuzzing form of the differential
// check: the fuzzer drives the program generator's seed and body length,
// and every fusion configuration must commit exactly the instruction
// count the functional emulator retires, with invariants checked
// throughout. Run with: go test -fuzz=FuzzPipelineModesAgree ./internal/ooo
func FuzzPipelineModesAgree(f *testing.F) {
	f.Add(int64(17), uint8(24))
	f.Add(int64(7919), uint8(48))
	f.Add(int64(-3), uint8(1))
	f.Add(int64(99), uint8(255))
	f.Fuzz(func(t *testing.T, seed int64, bodyLen uint8) {
		r := rand.New(rand.NewSource(seed))
		src := genProgram(r, 1+int(bodyLen)%64)
		prog, err := asm.Assemble(src)
		if err != nil {
			t.Fatalf("generator produced an unassemblable program: %v", err)
		}
		ref := emu.New(prog)
		want, err := ref.Run(3_000_000)
		if err != nil {
			t.Fatalf("emulate: %v", err)
		}
		if !ref.Halted() {
			t.Fatal("generated program did not halt")
		}
		for _, mode := range fusion.Modes {
			p := New(DefaultConfig(mode), recordMachine(t, emu.New(prog), 0))
			st, err := p.RunChecked(256)
			if err != nil {
				t.Fatalf("mode %v: %v", mode, err)
			}
			if st.CommittedInsts != want {
				t.Errorf("mode %v committed %d instructions, functional retired %d",
					mode, st.CommittedInsts, want)
			}
		}
	})
}

// TestFuzzSmallMachines repeats the differential check on deliberately
// tiny machines, where every structural stall and flush path is hammered.
func TestFuzzSmallMachines(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	src := genProgram(r, 48)
	prog, err := asm.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	ref := emu.New(prog)
	want, err := ref.Run(3_000_000)
	if err != nil || !ref.Halted() {
		t.Fatalf("emulate: %v halted=%v", err, ref.Halted())
	}
	for _, mode := range []fusion.Mode{fusion.ModeHelios, fusion.ModeOracle} {
		for _, shrink := range []struct {
			name string
			mut  func(*Config)
		}{
			{"tiny-rob", func(c *Config) { c.ROBSize = 24; c.PhysRegs = 64 }},
			{"tiny-iq", func(c *Config) { c.IQSize = 8 }},
			{"tiny-lsq", func(c *Config) { c.LQSize = 6; c.SQSize = 4 }},
			{"tiny-aq", func(c *Config) { c.AQSize = 10 }},
			{"narrow", func(c *Config) { c.FetchWidth = 2; c.RenameWidth = 1; c.CommitWidth = 1 }},
			{"one-port", func(c *Config) { c.ALUPorts = 1; c.LoadPorts = 1; c.StorePorts = 1 }},
		} {
			cfg := DefaultConfig(mode)
			shrink.mut(&cfg)
			p := New(cfg, recordMachine(t, emu.New(prog), 0))
			st, err := p.RunChecked(16)
			if err != nil {
				t.Fatalf("%v/%s: %v", mode, shrink.name, err)
			}
			if st.CommittedInsts != want {
				t.Errorf("%v/%s committed %d, want %d", mode, shrink.name, st.CommittedInsts, want)
			}
		}
	}
}

// TestRandomRecordingsReplay is the pipeline's half of the recording
// trust boundary: a recording that passes trace validation may still be
// one no program would produce — random opcodes and registers, a PC that
// holds different instructions in turn, addresses unrelated to register
// values — and every one must replay under all six fusion modes with
// invariants intact, committing every record. It found the fused-pair
// deadlock on a catalyst store addressed through the head's result and
// the lost tail destination of a head that writes x0.
func TestRandomRecordingsReplay(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 30
	}
	pcs := []uint64{0x1000, 0x1004, 0x1008, 0x100c, 0x1010, 0x2000}
	for seed := 0; seed < seeds; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		recs := make([]emu.Retired, 50+r.Intn(400))
		for i := range recs {
			op := isa.Opcode(r.Intn(isa.NumOpcodes))
			pc := pcs[r.Intn(len(pcs))]
			next := pc + 4
			if op.IsControlFlow() && r.Intn(2) == 0 {
				next = pcs[r.Intn(len(pcs))]
			}
			ea := uint64(r.Intn(512)) * 4
			if r.Intn(10) == 0 {
				ea = r.Uint64()
			}
			recs[i] = emu.Retired{
				Seq: uint64(i), PC: pc, NextPC: next,
				Inst: isa.Inst{Op: op, Rd: isa.Reg(r.Intn(isa.NumRegs)), Rs1: isa.Reg(r.Intn(isa.NumRegs)),
					Rs2: isa.Reg(r.Intn(isa.NumRegs)), Imm: int64(r.Intn(64))},
				EA: ea, MemSize: uint8(r.Intn(9)), Taken: r.Intn(2) == 0,
			}
		}
		rec, err := trace.FromRecords("random", 0, recs)
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range fusion.Modes {
			p := New(DefaultConfig(mode), rec)
			st, err := p.RunChecked(16)
			if err == nil {
				err = p.CheckInvariants()
			}
			if err != nil {
				t.Fatalf("seed %d, %v: %v", seed, mode, err)
			}
			if st.CommittedInsts != uint64(len(recs)) {
				t.Fatalf("seed %d, %v: committed %d of %d", seed, mode, st.CommittedInsts, len(recs))
			}
		}
	}
}
