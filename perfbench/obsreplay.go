package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"math/rand"
	"runtime"
	"time"

	"helios/internal/core"
	"helios/internal/fusion"
	"helios/internal/obs"
	"helios/internal/ooo"
)

// The obs-replay cell set: four workloads on which fusion fires, each
// replayed without fusion and under Helios.
var (
	obsWorkloads = []string{"bitcount", "mcf", "typeset", "xz"}
	obsModes     = []fusion.Mode{fusion.ModeNoFusion, fusion.ModeHelios}
	obsStreams   = []string{"pipeview", "events", "interval"}
)

const (
	obsInsts    = 100_000 // instruction budget per cell
	obsInterval = 10_000  // interval sampler period, in cycles
	obsSetups   = 15
	// obsTraceTurns is how many whole passes the traced run's
	// tracing-overhead comparison makes, half of them traced.
	obsTraceTurns = 8
)

// hashWriter hashes a stream and counts its bytes.
type hashWriter struct {
	h hash.Hash
	n int64
}

func newHashWriter() *hashWriter { return &hashWriter{h: sha256.New()} }

func (w *hashWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func (w *hashWriter) sum() string { return hex.EncodeToString(w.h.Sum(nil)) }

type obsCell struct {
	workload string
	mode     fusion.Mode
}

func (c obsCell) key(stream string) string {
	return c.workload + "/" + c.mode.String() + "/" + stream
}

// obsCells returns the cell set in its fixed order.
func obsCells() []obsCell {
	var cells []obsCell
	for _, w := range obsWorkloads {
		for _, m := range obsModes {
			cells = append(cells, obsCell{w, m})
		}
	}
	return cells
}

// observer attaches the named streams (all three when none are named)
// to hashing writers.
func observer(streams ...string) (*obs.Observer, map[string]*hashWriter) {
	if len(streams) == 0 {
		streams = obsStreams
	}
	ob := &obs.Observer{}
	ws := map[string]*hashWriter{}
	for _, s := range streams {
		w := newHashWriter()
		ws[s] = w
		switch s {
		case "pipeview":
			ob.PipeView = w
		case "events":
			ob.Events = w
		case "interval":
			ob.Metrics, ob.SampleEvery = w, obsInterval
		}
	}
	return ob, ws
}

// obsRun holds one obs-replay run's suite and cells.
type obsRun struct {
	suite *core.Suite
	cells []obsCell
	want  map[string]string
	res   *result
}

// runObsReplay is the obs-replay workload: the one run where the
// observability layer does most of the work. Set-up records the cell
// set's workloads; each timed pass replays every cell through
// Suite.ObserveReplay with all three streams hashed, and checks each
// digest against the golden run.
func runObsReplay(ctx context.Context, p params, g *goldens, sp *spans) (*result, error) {
	insts := p.Insts
	if insts == 0 {
		insts = obsInsts
	}
	setupS, suite, err := repeatSetup(obsSetups, func() (*core.Suite, error) {
		s := core.NewSuite(insts)
		for _, w := range obsWorkloads {
			if _, err := s.RecordingBudget(ctx, w, 0); err != nil {
				return nil, err
			}
		}
		return s, nil
	}, func(*core.Suite) {})
	if err != nil {
		return nil, err
	}
	r := &obsRun{suite: suite, want: g.Obs[budgetKey(insts)], res: &result{Correct: true, Metrics: map[string]metric{}}}
	r.cells = obsCells()
	rng := rand.New(rand.NewSource(p.Seed))
	rng.Shuffle(len(r.cells), func(i, j int) { r.cells[i], r.cells[j] = r.cells[j], r.cells[i] })

	if p.Trace {
		return r.res, r.trace(ctx, insts, sp)
	}
	// An operation is one cell's observed replay.
	var walls, cells []float64
	end := deadline(p.Seconds)
	for len(walls) == 0 || time.Now().Before(end) {
		t0 := time.Now()
		out, err := r.pass(ctx, nil, nil)
		if err != nil {
			return nil, err
		}
		walls = append(walls, seconds(t0))
		cells = append(cells, out.walls...)
	}
	putEndToEnd(r.res.Metrics, setupS, median(walls), cells)
	return r.res, nil
}

// passOut totals one pass: committed µ-ops, bytes per stream and each
// cell's wall in seconds.
type passOut struct {
	uops  uint64
	bytes map[string]int64
	walls []float64
}

// pass replays every cell once with the given streams attached (all
// three when none are named), one operation per cell, failing a cell
// whose any stream differs from its golden digest.
func (r *obsRun) pass(ctx context.Context, sp *spans, streams []string) (*passOut, error) {
	out := &passOut{bytes: map[string]int64{}}
	label := "all"
	if len(streams) == 1 {
		label = streams[0]
	}
	for _, c := range r.cells {
		ob, ws := observer(streams...)
		id := sp.start("obs.replay", label, 0)
		t0 := time.Now()
		res, err := r.suite.ObserveReplay(ctx, c.workload, c.mode, ob)
		out.walls = append(out.walls, seconds(t0))
		sp.end(id)
		if err != nil {
			return nil, err
		}
		out.uops += res.Stats.CommittedUops
		r.res.Attempted++
		ok := true
		for s, w := range ws {
			out.bytes[s] += w.n
			if want, has := r.want[c.key(s)]; !has || want != w.sum() {
				ok = false
			}
		}
		if !ok {
			r.res.Failed++
			r.res.Correct = false
		}
	}
	return out, nil
}

// trace is the traced obs-replay run: the set-up's recordings made
// again on a fresh suite and the emulator alone, the cells unobserved
// (the run's ooo metrics), then with one stream attached at a time,
// then with all three in turns untraced and traced.
func (r *obsRun) trace(ctx context.Context, insts uint64, sp *spans) error {
	mt := r.res.Metrics
	recordS, recorded, err := recordAll(ctx, core.NewSuite(insts), obsWorkloads, sp)
	if err != nil {
		return err
	}
	putRecording(mt, recordS, recorded)
	mips, err := emuMIPS(obsWorkloads, insts, sp)
	if err != nil {
		return err
	}
	mt["emu.mips"] = metric{mips, "Minst/s"}

	var cycles uint64
	for _, c := range r.cells {
		id := sp.start("ooo.replay", "off", 0)
		res, err := r.suite.ReplayConfig(ctx, c.workload, ooo.DefaultConfig(c.mode), 0)
		sp.end(id)
		if err != nil {
			return err
		}
		cycles += res.Stats.Cycles
	}
	off := sp.total("ooo.replay", "off")
	putReplay(mt, off, cycles)
	for _, s := range obsStreams {
		out, err := r.pass(ctx, sp, []string{s})
		if err != nil {
			return err
		}
		mt["obs."+s+"_s"] = metric{sp.total("obs.replay", s) - off, "s"}
		if s != "interval" {
			mt["obs."+s+"_mb"] = metric{float64(out.bytes[s]) / (1 << 20), "MiB"}
		}
	}

	// Whole passes with all three streams, taking turns untraced and
	// traced; allocations are counted over an untraced one.
	var walls [2][]float64
	for i := 0; i < obsTraceTurns; i++ {
		side, s := 0, (*spans)(nil)
		if tracedTurn(i) {
			side, s = 1, sp
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		out, err := r.pass(ctx, s, nil)
		walls[side] = append(walls[side], seconds(t0))
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		if i == 0 {
			mt["obs.allocs_per_uop"] = metric{float64(after.Mallocs-before.Mallocs) / float64(out.uops), "allocs/uop"}
		}
	}
	mt["trace_overhead_s"] = metric{median(walls[1]) - median(walls[0]), "s"}
	putCounters(mt, r.suite.Metrics())
	return nil
}
