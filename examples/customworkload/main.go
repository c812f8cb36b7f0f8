// Customworkload: bring your own RISC-V assembly. Reads a .s file (or uses
// a built-in matrix-transpose kernel), verifies it functionally, then runs
// the full fusion comparison on it — the workflow for adding a new
// benchmark to the suite.
//
// Run with: go run ./examples/customworkload [file.s]
package main

import (
	"fmt"
	"log"
	"os"

	"helios/internal/asm"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/ooo"
	"helios/internal/stats"
	"helios/internal/trace"
)

// A blocked 64x64 matrix transpose: each block row copy is a run of loads
// and stores at small strides, a good playground for pair fusion.
const defaultKernel = `
	.data
src:
	.zero 32768      # 64 x 64 dwords
dstm:
	.zero 32768
	.text
_start:
	la s0, src
	la s1, dstm
	li s2, 64        # N

	# Fill the source.
	mv t0, s0
	li t1, 7
	li t2, 32768
	add t2, s0, t2
fill:
	sd t1, 0(t0)
	addi t1, t1, 13
	addi t0, t0, 8
	bltu t0, t2, fill

	li s7, 12        # repetitions
rep:
	li s3, 0         # row
rowloop:
	li s4, 0         # col
	mul t3, s3, s2
	slli t3, t3, 3
	add t3, s0, t3   # &src[row][0]
colloop:
	ld a0, 0(t3)
	ld a1, 8(t3)     # contiguous load pair
	# dst[col][row] and dst[col+1][row]
	mul t4, s4, s2
	add t4, t4, s3
	slli t4, t4, 3
	add t4, s1, t4
	sd a0, 0(t4)
	slli t5, s2, 3
	add t4, t4, t5
	sd a1, 0(t4)
	addi t3, t3, 16
	addi s4, s4, 2
	blt s4, s2, colloop
	addi s3, s3, 1
	blt s3, s2, rowloop
	addi s7, s7, -1
	bnez s7, rep

	li a7, 93
	li a0, 0
	ecall
`

func main() {
	src := defaultKernel
	name := "matrix-transpose (built-in)"
	if len(os.Args) > 1 {
		b, err := os.ReadFile(os.Args[1])
		if err != nil {
			log.Fatal(err)
		}
		src = string(b)
		name = os.Args[1]
	}

	prog, err := asm.Assemble(src)
	if err != nil {
		log.Fatalf("assemble: %v", err)
	}

	// Functional verification first: the kernel must halt cleanly.
	m := emu.New(prog)
	n, err := m.Run(10_000_000)
	if err != nil {
		log.Fatalf("functional run: %v", err)
	}
	if !m.Halted() {
		log.Fatalf("kernel did not halt within 10M instructions")
	}
	fmt.Printf("%s: %d dynamic instructions, exit=%d\n\n", name, n, m.ExitCode())

	// Record the committed stream once; every configuration replays it.
	rec, err := trace.Record(trace.NewLive(emu.New(prog), 0))
	if err != nil {
		log.Fatalf("record: %v", err)
	}

	t := stats.NewTable("fusion comparison", "config", "IPC", "speedup",
		"csf", "ncsf", "idioms", "accuracy")
	var base float64
	for _, mode := range fusion.Modes {
		p := ooo.New(ooo.DefaultConfig(mode), rec)
		st, err := p.Run()
		if err != nil {
			log.Fatal(err)
		}
		if mode == fusion.ModeNoFusion {
			base = st.IPC()
		}
		t.AddRow(mode.String(), stats.F(st.IPC(), 3), stats.Pct(st.IPC()/base-1, 1),
			fmt.Sprint(st.CSFPairs()), fmt.Sprint(st.NCSFPairs()),
			fmt.Sprint(st.FusedIdiom+st.FusedMemIdiom), stats.Pct(st.Accuracy(), 1))
	}
	fmt.Println(t)
}
