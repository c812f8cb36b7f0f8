package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"helios/internal/core"
	"helios/internal/experiments"
	"helios/internal/fusion"
	"helios/internal/workloads"
)

// fig10Workers sizes the scheduler for a 2-CPU host.
const fig10Workers = 2

// fig10Setups is how many times a run repeats its set-up.
const fig10Setups = 101

// fig10Out is what one cold Figure 10 run produced.
type fig10Out struct {
	table  string
	cycles map[string]uint64 // "workload/mode" -> simulated cycles
	m      core.Metrics
}

// runFig10 is the fig10-cold workload: what a user regenerating the
// paper's headline figure waits for. Each repetition builds a fresh
// harness, prefetches all 17 workloads × 6 fusion modes on two
// scheduler workers, and renders Figure 10. The seed only permutes the
// order cells are issued in; results are order-independent.
func runFig10(ctx context.Context, p params, g *goldens, sp *spans) (*result, error) {
	want, ok := g.Fig10[budgetKey(p.Insts)]
	if !ok {
		want = fig10Golden{} // no golden for this size: every check fails
	}
	setupS, _, err := repeatSetup(fig10Setups, func() (*experiments.Harness, error) {
		return newFig10Harness(p.Insts)
	}, func(*experiments.Harness) {})
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	res := &result{Correct: true, Metrics: map[string]metric{}}
	if p.Trace {
		return res, traceFig10(ctx, p, rng, want, sp, res)
	}

	// An operation is one cell of the fan-out, timed by RunCells from
	// outside ooo; the cell that first needs a workload also records it.
	var walls, cells []float64
	end := deadline(p.Seconds)
	for len(walls) == 0 || time.Now().Before(end) {
		settle()
		t0 := time.Now()
		out, err := coldFig10(ctx, p.Insts, rng)
		if err != nil {
			return nil, err
		}
		walls = append(walls, seconds(t0))
		checkFig10(res, out, want)
		for _, c := range out.m.CellWalls {
			cells = append(cells, c.Wall.Seconds())
		}
	}
	putEndToEnd(res.Metrics, setupS, median(walls), cells)
	return res, nil
}

// newFig10Harness is the set-up a cold run needs before its first cell:
// a fresh harness over every registered workload, whose programs must
// all assemble.
func newFig10Harness(insts uint64) (*experiments.Harness, error) {
	h := experiments.New(insts)
	for _, name := range h.Workloads {
		w, _ := workloads.ByName(name) // Names() lists registered workloads only
		if _, err := w.Program(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// shuffled returns the workload names and fusion modes in a seeded order.
func shuffled(rng *rand.Rand) ([]string, []fusion.Mode) {
	names := workloads.Names()
	modes := append([]fusion.Mode(nil), fusion.Modes...)
	rng.Shuffle(len(names), func(i, j int) { names[i], names[j] = names[j], names[i] })
	rng.Shuffle(len(modes), func(i, j int) { modes[i], modes[j] = modes[j], modes[i] })
	return names, modes
}

// coldFig10 is one timed repetition: fresh harness, PrefetchN, Figure10.
func coldFig10(ctx context.Context, insts uint64, rng *rand.Rand) (*fig10Out, error) {
	names, modes := shuffled(rng)
	h := experiments.New(insts)
	h.Suite.PrefetchN(ctx, names, modes, fig10Workers)
	tbl, err := h.Figure10(ctx)
	if err != nil {
		return nil, fmt.Errorf("figure 10: %w", err)
	}
	return collectFig10(ctx, h, tbl.String())
}

// collectFig10 reads every cell's cycles back from the warm suite.
func collectFig10(ctx context.Context, h *experiments.Harness, table string) (*fig10Out, error) {
	out := &fig10Out{table: table, cycles: map[string]uint64{}, m: h.Suite.Metrics()}
	for _, name := range h.Workloads {
		for _, m := range fusion.Modes {
			r, err := h.Suite.Get(ctx, name, m)
			if err != nil {
				return nil, err
			}
			out.cycles[name+"/"+m.String()] = r.Stats.Cycles
		}
	}
	return out, nil
}

// checkFig10 counts one operation per cell plus one for the table, and
// a failure for each cell whose cycles differ from the golden run, for
// a table whose digest differs, and for a run that emulated any
// workload more than once or replayed any cell more than once.
func checkFig10(res *result, out *fig10Out, want fig10Golden) {
	res.Attempted += len(out.cycles) + 1
	for k, c := range out.cycles {
		if wc, ok := want.Cycles[k]; !ok || wc != c {
			res.Failed++
		}
	}
	cells := uint64(len(out.cycles))
	sum := sha256.Sum256([]byte(out.table))
	if hex.EncodeToString(sum[:]) != want.Table ||
		out.m.TraceMisses != cells/uint64(len(fusion.Modes)) || out.m.PipelineRuns != cells {
		res.Failed++
	}
	res.Correct = res.Failed == 0
}

// parallel runs fn(0..n-1) on `workers` goroutines that claim indices
// from a shared cursor in order, and returns once all have finished.
func parallel(workers, n int, fn func(i int)) {
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(cursor.Add(1) - 1); i < n; i = int(cursor.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// traceFig10 is the traced fig10-cold run. Its repetitions split a cold
// run at the layer boundaries (layeredFig10) and take turns untraced
// and traced; the tracing overhead is the difference of the two sides'
// median walls, and each per-layer metric is its median over the traced
// repetitions. It then times the emulator alone.
func traceFig10(ctx context.Context, p params, rng *rand.Rand, want fig10Golden, sp *spans, res *result) error {
	var walls [2][]float64
	var last [2]*fig10Out
	var layers []map[string]metric
	end := deadline(p.Seconds)
	for i := 0; len(walls[1]) == 0 || len(walls[0]) != len(walls[1]) || time.Now().Before(end); i++ {
		side, s := 0, (*spans)(nil)
		if tracedTurn(i) {
			side, s = 1, sp
		}
		settle()
		run, err := layeredFig10(ctx, p.Insts, rng, s)
		if err != nil {
			return err
		}
		checkFig10(res, run.out, want)
		walls[side] = append(walls[side], run.wall)
		last[side] = run.out
		if s != nil {
			layers = append(layers, fig10Layers(run, s))
		}
	}

	// The two sides must agree cycle for cycle.
	for k, c := range last[1].cycles {
		if last[0].cycles[k] != c {
			res.Failed++
			res.Correct = false
		}
	}
	mt := medianMetrics(layers)
	mt["trace_overhead_s"] = metric{median(walls[1]) - median(walls[0]), "s"}
	mips, err := emuMIPS(workloads.Names(), p.Insts, sp)
	if err != nil {
		return err
	}
	mt["emu.mips"] = metric{mips, "Minst/s"}
	res.Metrics = mt
	return nil
}

// layeredRun is one repetition of layeredFig10.
type layeredRun struct {
	out   *fig10Out
	root  int     // the repetition's root span
	insts int     // instructions recorded over all workloads
	wall  float64 // seconds, from the fresh harness to the rendered table
}

// layeredFig10 is one cold repetition split at the layer boundaries: a
// fresh harness, a record phase (Suite.RecordingBudget per workload on
// two workers), then the same PrefetchN and Figure10 calls coldFig10
// makes, so RunCells times each cell's replay apart from its recording.
// With sp nil it records no spans and runs the same calls.
func layeredFig10(ctx context.Context, insts uint64, rng *rand.Rand, sp *spans) (*layeredRun, error) {
	names, modes := shuffled(rng)
	t0 := time.Now()
	root := sp.start("fig10", "", 0)
	h := experiments.New(insts)
	recs := make([]int, len(names))
	errs := make([]error, len(names))
	parallel(fig10Workers, len(names), func(i int) {
		id := sp.start("core.record", names[i], root)
		rec, err := h.Suite.RecordingBudget(ctx, names[i], 0)
		sp.end(id)
		if errs[i] = err; err == nil {
			recs[i] = rec.Len()
		}
	})
	id := sp.start("core.prefetch", "", root)
	h.Suite.PrefetchN(ctx, names, modes, fig10Workers)
	sp.end(id)
	id = sp.start("experiments.figure10", "", root)
	tbl, err := h.Figure10(ctx)
	sp.end(id)
	sp.end(root)
	wall := seconds(t0)
	for _, e := range append(errs, err) {
		if e != nil {
			return nil, e
		}
	}
	out, err := collectFig10(ctx, h, tbl.String())
	if err != nil {
		return nil, err
	}
	run := &layeredRun{out: out, root: root, wall: wall}
	for _, n := range recs {
		run.insts += n
	}
	return run, nil
}

// fig10Layers derives one traced repetition's per-layer metrics: replay
// time, in all and per mode, and the realized speedup from RunCells' own
// cell walls, record and table time from the repetition's spans.
func fig10Layers(run *layeredRun, sp *spans) map[string]metric {
	m := run.out.m
	replay := map[fusion.Mode]time.Duration{}
	var sum time.Duration
	for _, c := range m.CellWalls {
		replay[c.Mode] += c.Wall
		sum += c.Wall
	}
	mt := map[string]metric{}
	var all uint64
	for _, mode := range fusion.Modes {
		var cycles uint64
		for k, c := range run.out.cycles {
			if strings.HasSuffix(k, "/"+mode.String()) {
				cycles += c
			}
		}
		all += cycles
		s := replay[mode].Seconds()
		mt["ooo.sim_cycles."+modeName(mode)] = metric{float64(cycles), "count"}
		mt["ooo.replay_s."+modeName(mode)] = metric{s, "s"}
		mt["ooo.ns_per_cycle."+modeName(mode)] = metric{s * 1e9 / float64(cycles), "ns"}
	}
	putReplay(mt, sum.Seconds(), all)
	putRecording(mt, sp.childTotal(run.root, "core.record"), run.insts)
	putCounters(mt, m)
	mt["core.realized_x"] = metric{float64(sum) / float64(m.FanoutWall), "x"}
	mt["experiments.table_ms"] = metric{sp.childTotal(run.root, "experiments.figure10") * 1e3, "ms"}
	return mt
}
