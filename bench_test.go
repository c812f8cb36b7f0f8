// Package helios_test hosts the benchmark harness: one testing.B benchmark
// per table and figure of the paper's evaluation (run them with
// `go test -bench=. -benchmem`), plus throughput micro-benchmarks for the
// simulator itself. Figure/table benches report the headline quantity of
// the corresponding artifact via b.ReportMetric, so a bench run regenerates
// the evaluation at reduced instruction budgets; use cmd/experiments for
// the full-budget numbers recorded in EXPERIMENTS.md.
package helios_test

import (
	"context"

	"strconv"
	"strings"
	"testing"
	"time"

	"helios/internal/branch"
	"helios/internal/core"
	"helios/internal/emu"
	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/ooo"
	"helios/internal/trace"
	"helios/internal/workloads"
)

// benchBudget keeps each experiment iteration fast enough for testing.B.
const benchBudget = 30_000

func newHarness() *experiments.Harness {
	return experiments.New(benchBudget)
}

// lastCell parses the numeric value (stripping %) in the given column of a
// table's last row.
func lastCell(b *testing.B, h *experiments.Harness, id string, col int) float64 {
	b.Helper()
	tbl, err := h.Run(context.Background(), id)
	if err != nil {
		b.Fatal(err)
	}
	row := tbl.Row(tbl.NumRows() - 1)
	v, err := strconv.ParseFloat(strings.TrimSuffix(row[col], "%"), 64)
	if err != nil {
		b.Fatalf("%s: bad cell %q", id, row[col])
	}
	return v
}

// BenchmarkFigure2 regenerates Figure 2 (fused µ-ops by idiom class) and
// reports the average memory-idiom percentage.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		mem := lastCell(b, h, "fig2", 1)
		b.ReportMetric(mem, "mem-fused-%")
	}
}

// BenchmarkFigure3 regenerates Figure 3 and reports the geomean normalized
// IPC of memory-only fusion.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "fig3", 2), "memonly-speedup")
	}
}

// BenchmarkFigure4 regenerates Figure 4 (consecutive pair categories) and
// reports the average contiguous-pair percentage.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "fig4", 1), "contiguous-%")
	}
}

// BenchmarkFigure5 regenerates Figure 5 and reports the average additional
// NCSF percentage.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "fig5", 2), "ncsf-%")
	}
}

// BenchmarkFigure8 regenerates Figure 8 and reports Helios's average NCSF
// pair percentage (relative to memory instructions).
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "fig8", 2), "helios-ncsf-%")
	}
}

// BenchmarkFigure9 regenerates Figure 9 (structural stalls); the metric is
// the count of table rows (three configurations per workload).
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		tbl, err := h.Run(context.Background(), "fig9")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tbl.NumRows()), "rows")
	}
}

// BenchmarkFigure10 regenerates the headline figure and reports the
// geomean Helios speedup over NoFusion.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "fig10", 4), "helios-geomean")
		b.ReportMetric(lastCell(b, h, "fig10", 5), "oracle-geomean")
	}
}

// BenchmarkSuiteFig10 pins down the trace layer's speedup: the full
// Figure 10 matrix (6 configurations per workload) with the suite's
// record-once/replay-many path versus re-emulating the kernel for every
// run, the way the pre-trace-layer code did. The ns/op gap between the
// two sub-benches is the benefit of reusing the recording.
func BenchmarkSuiteFig10(b *testing.B) {
	names := []string{"crc32", "xz", "sha"}
	b.Run("trace-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h := experiments.New(benchBudget)
			h.Workloads = names
			if _, err := h.Figure10(context.Background()); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(h.Suite.Metrics().TraceMisses), "emulations")
		}
	})
	b.Run("no-reuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			emulations := 0
			for _, name := range names {
				w, _ := workloads.ByName(name)
				for _, m := range fusion.Modes {
					if _, err := core.Run(context.Background(), w, m, benchBudget); err != nil {
						b.Fatal(err)
					}
					emulations++
				}
			}
			b.ReportMetric(float64(emulations), "emulations")
		}
	})
}

// BenchmarkSuiteParallel measures the suite scheduler: the same
// workload×mode matrix warmed serially (workers=1) versus fanned across
// GOMAXPROCS workers. On a multi-core runner the ns/op gap is the
// scheduler's realized speedup; on a single-core runner the two
// converge (the committed BENCH_*.json snapshots record num_cpu and
// gomaxprocs so the trajectory is read in context). The realized-x
// metric is the suite's own measurement: serial-equivalent sum of
// per-cell walls over elapsed fan-out wall.
func BenchmarkSuiteParallel(b *testing.B) {
	names := []string{"crc32", "xz", "sha"}
	run := func(b *testing.B, workers int) {
		for i := 0; i < b.N; i++ {
			h := experiments.New(benchBudget)
			h.Workloads = names
			h.Suite.PrefetchN(context.Background(), names, fusion.Modes, workers)
			if _, err := h.Figure10(context.Background()); err != nil {
				b.Fatal(err)
			}
			m := h.Suite.Metrics()
			if m.FanoutWall > 0 {
				var sum time.Duration
				for _, c := range m.CellWalls {
					sum += c.Wall
				}
				b.ReportMetric(float64(sum)/float64(m.FanoutWall), "realized-x")
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, 1) })
	b.Run("parallel", func(b *testing.B) { run(b, 0) })
}

// BenchmarkTable2 regenerates the machine configuration table.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		tbl, err := h.Run(context.Background(), "table2")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(tbl.NumRows()), "rows")
	}
}

// BenchmarkTable3 regenerates the predictor quality table and reports the
// average accuracy (the paper reports 99.7%).
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newHarness()
		b.ReportMetric(lastCell(b, h, "table3", 2), "accuracy-%")
		b.ReportMetric(lastCell(b, h, "table3", 1), "coverage-%")
	}
}

// BenchmarkStorageCost regenerates the Section IV-B7 storage accounting.
func BenchmarkStorageCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		c := helios.Cost(helios.PaperParams())
		b.ReportMetric(float64(c.TotalBits()), "bits")
	}
}

// ---- Simulator throughput micro-benchmarks ----

// BenchmarkEmulator measures functional simulation speed.
func BenchmarkEmulator(b *testing.B) {
	w, _ := workloads.ByName("crc32")
	b.ResetTimer()
	retired := 0
	for retired < b.N {
		m, err := w.NewMachine()
		if err != nil {
			b.Fatal(err)
		}
		n, err := m.Run(uint64(b.N - retired))
		if err != nil {
			b.Fatal(err)
		}
		retired += int(n)
	}
	b.ReportMetric(float64(retired), "insts")
}

// BenchmarkPipelineNoFusion measures the cycle-level replay rung: one op
// is a full replay of a recorded xz stream (pipelineBudget instructions)
// under NoFusion, so ns/op is replay wall and cycles/op pins the
// simulated machine.
func BenchmarkPipelineNoFusion(b *testing.B) {
	benchPipeline(b, fusion.ModeNoFusion)
}

// BenchmarkPipelineHelios is the replay rung with the full Helios
// machinery enabled.
func BenchmarkPipelineHelios(b *testing.B) {
	benchPipeline(b, fusion.ModeHelios)
}

// BenchmarkPipelineOracle is the replay rung with oracle pairing.
func BenchmarkPipelineOracle(b *testing.B) {
	benchPipeline(b, fusion.ModeOracle)
}

// pipelineBudget sizes the replay rungs: long enough that pipeline warmup
// is a small share, short enough for a fixed -benchtime 3x snapshot.
const pipelineBudget = 100_000

func benchPipeline(b *testing.B, mode fusion.Mode) {
	w, _ := workloads.ByName("xz")
	src, err := w.Trace(pipelineBudget)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := trace.Record(src)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var cycles, insts uint64
	for i := 0; i < b.N; i++ {
		r, err := core.RunSource(context.Background(), w.Name, ooo.DefaultConfig(mode), rec.Replay(), pipelineBudget)
		if err != nil {
			b.Fatal(err)
		}
		cycles += r.Stats.Cycles
		insts += r.Stats.CommittedInsts
	}
	b.ReportMetric(float64(cycles)/float64(b.N), "cycles/op")
	b.ReportMetric(float64(insts)/float64(b.N), "insts/op")
}

// BenchmarkUCH measures the Unfused Committed History's observe path.
func BenchmarkUCH(b *testing.B) {
	u := helios.NewUCH()
	for i := 0; i < b.N; i++ {
		u.ObserveLoad(uint64(i%97), uint64(i))
	}
}

// BenchmarkFP measures a fusion predictor lookup+train round trip.
func BenchmarkFP(b *testing.B) {
	fp := helios.NewFP()
	for i := 0; i < b.N; i++ {
		pc := uint64(i % 4096 * 4)
		fp.Predict(pc, uint64(i))
		fp.Train(pc, uint64(i), 1+i%63)
	}
}

// frontendBudget sizes the front-end rungs. Each records a
// 100k-instruction typeset stream before the timer starts, so one op
// times a single layer over it and the emulator stays out.
const frontendBudget = 100_000

func recordFrontendStream(b *testing.B) *trace.Recording {
	w, _ := workloads.ByName("typeset")
	rec, err := w.Record(frontendBudget)
	if err != nil {
		b.Fatal(err)
	}
	return rec
}

// BenchmarkOracle measures the perfect-pairing engine: one op observes
// every record of the stream, from a Reset oracle.
func BenchmarkOracle(b *testing.B) {
	rec := recordFrontendStream(b)
	o := fusion.NewOracle(fusion.DefaultPairConfig())
	b.ReportAllocs()
	b.ResetTimer()
	pairs := 0
	for i := 0; i < b.N; i++ {
		o.Reset()
		for j := 0; j < rec.Len(); j++ {
			if _, ok := o.Observe(rec.At(j)); ok {
				pairs++
			}
		}
	}
	b.ReportMetric(float64(pairs)/float64(b.N), "pairs/op")
}

// BenchmarkTAGE measures the baseline direction predictor the way the
// frontend drives it: one op resolves every conditional branch of the
// stream, in order, on a fresh predictor of the default size.
func BenchmarkTAGE(b *testing.B) {
	rec := recordFrontendStream(b)
	var brs []emu.Retired
	for j := 0; j < rec.Len(); j++ {
		if r := rec.At(j); r.Inst.Op.IsBranch() {
			brs = append(brs, r)
		}
	}
	logSize := ooo.DefaultConfig(fusion.ModeNoFusion).TAGELogSize
	b.ReportAllocs()
	b.ResetTimer()
	mispredicts := 0
	for i := 0; i < b.N; i++ {
		t := branch.NewTAGE(logSize)
		var h branch.History
		for _, r := range brs {
			if t.Resolve(r.PC, h.Bits(), r.Taken) != r.Taken {
				mispredicts++
			}
			h.Push(r.Taken)
		}
	}
	b.ReportMetric(float64(len(brs)), "branches/op")
	b.ReportMetric(float64(mispredicts)/float64(b.N), "mispredicts/op")
}

var sinkRetired emu.Retired

// BenchmarkDecode measures raw instruction decode throughput.
func BenchmarkDecode(b *testing.B) {
	w, _ := workloads.ByName("sha")
	s, err := w.Trace(uint64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := s.Next()
		if !ok {
			s, _ = w.Trace(uint64(b.N))
			continue
		}
		sinkRetired = r
	}
}

// BenchmarkConfigSweep exercises the whole design space on one workload:
// the ablation used by examples/fusionstudy.
func BenchmarkConfigSweep(b *testing.B) {
	w, _ := workloads.ByName("typeset")
	for i := 0; i < b.N; i++ {
		for _, m := range fusion.Modes {
			cfg := ooo.DefaultConfig(m)
			cfg.MaxUops = 10_000
			if _, err := core.RunConfig(context.Background(), w, cfg, 10_000); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// ---- Design-space ablation benchmarks (Section IV discussion) ----

// BenchmarkAblationNesting sweeps the NCSF nesting depth (the paper found
// two levels sufficient).
func BenchmarkAblationNesting(b *testing.B) {
	for _, nest := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(nest), func(b *testing.B) {
			w, _ := workloads.ByName("fft")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.MaxNCSFNest = nest
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.NCSFPairs()), "ncsf")
			}
		})
	}
}

// BenchmarkAblationDistance sweeps the maximum head-tail distance
// (the paper allows 64 µ-ops).
func BenchmarkAblationDistance(b *testing.B) {
	for _, dist := range []int{4, 16, 64} {
		b.Run(strconv.Itoa(dist), func(b *testing.B) {
			w, _ := workloads.ByName("sha")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.PairCfg.MaxDist = dist
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.NCSFPairs()), "ncsf")
			}
		})
	}
}

// BenchmarkAblationUCHSize sweeps the load-side UCH capacity
// (the paper chose 6 entries).
func BenchmarkAblationUCHSize(b *testing.B) {
	for _, size := range []int{1, 2, 6, 16} {
		b.Run(strconv.Itoa(size), func(b *testing.B) {
			w, _ := workloads.ByName("typeset")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.UCHLoadEntries = size
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(float64(r.Stats.TotalMemPairs()), "pairs")
			}
		})
	}
}

// BenchmarkAblationConfidence compares the paper's deterministic 2-bit
// confidence against probabilistic counters (the suggested
// accuracy/coverage trade).
func BenchmarkAblationConfidence(b *testing.B) {
	configs := []struct {
		name string
		fp   helios.FPConfig
	}{
		{"thresh1", helios.FPConfig{ConfidenceThreshold: 1}},
		{"thresh3", helios.FPConfig{}},
		{"prob2", helios.FPConfig{ProbShift: 2}},
		{"prob4", helios.FPConfig{ProbShift: 4}},
	}
	for _, c := range configs {
		c := c
		b.Run(c.name, func(b *testing.B) {
			w, _ := workloads.ByName("qsort")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.FP = c.fp
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
				b.ReportMetric(100*r.Stats.Accuracy(), "accuracy-%")
			}
		})
	}
}

// BenchmarkAblationStoreDrain sweeps the store buffer drain bandwidth,
// the resource whose pressure drives the paper's largest gains.
func BenchmarkAblationStoreDrain(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		b.Run(strconv.Itoa(n), func(b *testing.B) {
			w, _ := workloads.ByName("xz")
			for i := 0; i < b.N; i++ {
				cfg := ooo.DefaultConfig(fusion.ModeHelios)
				cfg.StoreDrainPerCycle = n
				r, err := core.RunConfig(context.Background(), w, cfg, benchBudget)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(r.Stats.IPC(), "ipc")
			}
		})
	}
}
