// Quickstart: assemble a small RISC-V program, execute it functionally,
// then simulate it on the out-of-order core with and without Helios
// fusion and compare.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/trace"
)

// A loop that sums an array of 16-byte records: the two field loads are
// contiguous (consecutive fusion catches them) and the per-record checksum
// stores land in the same line one iteration apart (Helios catches those).
const program = `
	.data
recs:
	.zero 16384      # 1024 records x 16 bytes
sums:
	.zero 8192
	.text
_start:
	la s0, recs
	la s1, sums
	li s2, 1024      # records

	# Initialise the records.
	mv t0, s0
	li t1, 1
	li t2, 16384
	add t2, s0, t2
init:
	sd t1, 0(t0)
	slli t3, t1, 1
	sd t3, 8(t0)
	addi t1, t1, 3
	addi t0, t0, 16
	bltu t0, t2, init

	# Sum pass: load pair + checksum store.
	li s3, 40        # passes
	li s4, 0         # checksum
pass:
	mv t0, s0
	mv t4, s1
	li t5, 0
sum:
	ld a0, 0(t0)     # field a
	ld a1, 8(t0)     # field b: contiguous pair
	add a2, a0, a1
	add s4, s4, a2
	sd a2, 0(t4)
	addi t0, t0, 16
	addi t4, t4, 8
	addi t5, t5, 1
	blt t5, s2, sum
	addi s3, s3, -1
	bnez s3, pass

	li a7, 93
	li a0, 0
	ecall
`

func main() {
	// 1. Assemble.
	prog, err := asm.Assemble(program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("assembled: %d instructions, %d data bytes\n", len(prog.Text), len(prog.Data))

	// 2. Execute functionally (like Spike) to check the program behaves.
	m := emu.New(prog)
	n, err := m.Run(2_000_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("functional run: %d instructions, exit=%d\n\n", n, m.ExitCode())

	// 3. Record the committed stream once, then replay it on the
	// Icelake-like core under two fusion configs (the stream is identical
	// for every config, so one emulation feeds both runs).
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 0))
	if err != nil {
		log.Fatal(err)
	}
	run := func(mode fusion.Mode) *ooo.Stats {
		p := ooo.New(ooo.DefaultConfig(mode), rec)
		st, err := p.Run()
		if err != nil {
			log.Fatal(err)
		}
		return st
	}

	base := run(fusion.ModeNoFusion)
	hel := run(fusion.ModeHelios)

	fmt.Printf("%-22s %12s %12s\n", "", "NoFusion", "Helios")
	fmt.Printf("%-22s %12d %12d\n", "cycles", base.Cycles, hel.Cycles)
	fmt.Printf("%-22s %12.3f %12.3f\n", "IPC", base.IPC(), hel.IPC())
	fmt.Printf("%-22s %12d %12d\n", "consecutive pairs", base.CSFPairs(), hel.CSFPairs())
	fmt.Printf("%-22s %12d %12d\n", "non-consecutive pairs", base.NCSFPairs(), hel.NCSFPairs())
	fmt.Printf("\nspeedup from fusion: %.1f%%\n", 100*(hel.IPC()/base.IPC()-1))
}
