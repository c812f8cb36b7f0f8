package ooo

import (
	"context"
	"fmt"
	"math/rand"

	"helios/internal/branch"
	"helios/internal/cache"
	"helios/internal/emu"
	"helios/internal/fusion"
	"helios/internal/helios"
	"helios/internal/memdep"
	"helios/internal/obs"
	"helios/internal/trace"
)

// Pipeline is the cycle-level core model.
type Pipeline struct {
	cfg Config
	mem *cache.Hierarchy

	// Instruction supply: the recording's committed-path stream, read in
	// place. Record i has Seq i (trace validates that where the recording
	// is built), so a seq indexes recs directly. fetchDone latches once
	// fetch has asked for the seq past the last record.
	recs      []emu.Retired
	nextFetch uint64 // next seq to decode
	fetchDone bool

	// Frontend.
	ghr           branch.History
	tage          *branch.TAGE
	btb           *branch.BTB
	ras           *branch.RAS
	fetchStalled  bool   // waiting on a mispredicted branch to resolve
	fetchResumeAt uint64 // cycle at which fetch may resume
	fetchHeldBy   uint64 // seq of the branch fetch is stalled on
	aq            *uopRing

	// I-cache fetch stall.
	icacheReadyAt uint64
	lastFetchLine uint64

	// Rename.
	rat      [32]int32
	freeList []int32
	regReady []bool
	waiters  []waiterList

	// Committed architectural state for flush recovery: mapping plus the
	// sequence number of the youngest committed writer per arch register.
	cRAT       [32]int32
	lastWriter [32]int64

	// Pending NCSF'd µ-ops: head renamed, tail not yet (paper: ≤ 2).
	pendingNCSF []*pUop

	// Backend. Completions are scheduled on the event wheel (slice
	// indexed by cycle) rather than a map keyed by completion cycle. The
	// IQ is a counter (dispatched, not yet issued µ-ops) plus the ready
	// list issueStage selects from; the SQ is age-ordered.
	rob     *uopRing
	iqCount int
	ready   readyList
	lq      []*pUop
	sq      []*pUop
	events  *eventWheel

	// µ-op recycling (DESIGN.md §13): every pUop is drawn from and
	// returned to the arena; deadUops is flushFrom's deferred-release
	// scratch (killed µ-ops must outlive the queue filters that still
	// inspect their fields).
	arena      uopArena
	fetchGroup []*pUop // frontendStage decode-group scratch
	deadUops   []*pUop

	// Predictors.
	storeSets *memdep.StoreSets
	uch       *helios.UCH
	fp        *helios.FP
	oracle    *fusion.Oracle

	// Oracle pairings awaiting application, keyed by tail seq on a ring
	// (exact-seq validated, so an abandoned entry can never alias).
	plannedPairs *pairingRing
	oracleFed    uint64 // next seq the oracle expects

	// Store buffer drain port state.
	drainPortFree uint64
	lastDrainDone uint64

	// Crash-dump breadcrumbs: ring of the last committed seqs.
	recentCommits [8]uint64
	recentCount   uint64

	// Chaos fault injection (cfg.ChaosFlushInterval > 0).
	chaosRand *rand.Rand

	// Observability (cfg.Obs; nil when disabled). flushedAt/flushPending
	// feed the flush-recovery latency histogram: armed by flushFrom,
	// observed at the next commit. disasmCache maps a static PC to its
	// rendered instruction; made on the first traced µ-op, so it stays
	// nil unless an observer with a per-µ-op stream is attached.
	obs          *obs.Observer
	flushedAt    uint64
	flushPending bool
	disasmCache  map[uint64]disasmEntry

	// Top-down accounting state (DESIGN.md §12): tdRecovering marks
	// rename-idle cycles after a flush as squash recovery until the
	// next dispatch; renameStalled lets fetch charge StallAQ only on
	// cycles rename did not already charge a stall (once-per-cycle
	// attribution across the stall_* family).
	tdRecovering  bool
	renameStalled bool

	cycle uint64
	st    Stats
}

// New builds a pipeline that replays the recording's committed-path
// stream.
func New(cfg Config, rec *trace.Recording) *Pipeline {
	cfg.validate()
	p := &Pipeline{
		cfg:          cfg,
		mem:          cache.New(cfg.Cache),
		recs:         rec.Records(),
		tage:         branch.NewTAGE(cfg.TAGELogSize),
		btb:          branch.NewBTB(cfg.BTBSets, cfg.BTBWays),
		ras:          branch.NewRAS(cfg.RASSize),
		aq:           newUopRing(cfg.AQSize),
		rob:          newUopRing(cfg.ROBSize),
		ready:        newReadyList(max(cfg.IQSize, 0)),
		events:       newEventWheel(),
		storeSets:    memdep.New(cfg.StoreSetLogSize, cfg.StoreSetLogSets),
		plannedPairs: newPairingRing(cfg.PairCfg.MaxDist),
		obs:          cfg.Obs,
	}
	// Physical register file: the first 32 back the initial RAT.
	p.regReady = make([]bool, cfg.PhysRegs)
	p.waiters = make([]waiterList, cfg.PhysRegs)
	for i := 0; i < 32; i++ {
		p.rat[i] = int32(i)
		p.cRAT[i] = int32(i)
		p.lastWriter[i] = -1
		p.regReady[i] = true
	}
	for i := int32(32); i < int32(cfg.PhysRegs); i++ {
		p.freeList = append(p.freeList, i)
	}
	// Top-down slot budget: DispatchWidth slots accounted per cycle.
	p.st.TopDown.SlotsPerCycle = uint64(cfg.DispatchWidth)
	if cfg.Mode.Predictive() {
		if cfg.UCHLoadEntries > 0 {
			p.uch = helios.NewUCHSize(cfg.UCHLoadEntries)
		} else {
			p.uch = helios.NewUCH()
		}
		p.fp = helios.NewFPWith(cfg.FP)
	}
	if cfg.Mode.OraclePairs() {
		p.oracle = fusion.NewOracle(cfg.PairCfg)
	}
	return p
}

// Stats returns the accumulated statistics.
func (p *Pipeline) Stats() *Stats { return &p.st }

// Mem returns the cache hierarchy (for cache stats).
func (p *Pipeline) Mem() *cache.Hierarchy { return p.mem }

// watchdogInterval is the forward-progress bound: if no instruction
// commits for this many cycles, the run is declared hung and fails with
// a FailWatchdog SimError instead of spinning forever.
const watchdogInterval = 100_000

// ctxCheckInterval is how often (in cycles) the run loop polls its
// context — frequent enough that cancellation lands well within one
// watchdog interval, rare enough to stay off the per-cycle hot path.
const ctxCheckInterval = 1024

// Run simulates until the recording is exhausted and the pipeline
// drains, or cfg.MaxUops architectural instructions have committed. It
// returns the final statistics.
//
//helios:ctx-ok top-of-stack convenience for examples and tests; callers needing cancellation use RunContext
func (p *Pipeline) Run() (*Stats, error) {
	return p.run(context.Background(), 0)
}

// RunContext is Run with cooperative cancellation: the cycle loop polls
// ctx and aborts with a FailContext SimError (unwrapping to ctx.Err())
// within ctxCheckInterval cycles of cancellation or deadline expiry.
func (p *Pipeline) RunContext(ctx context.Context) (*Stats, error) {
	return p.run(ctx, 0)
}

// run is the single simulation loop behind Run, RunContext and
// RunChecked. Every abnormal exit — watchdog, stage panic, invariant
// violation, cancellation — is returned as a *SimError with a pipeline
// snapshot attached; run never panics and never hangs.
func (p *Pipeline) run(ctx context.Context, checkEvery uint64) (st *Stats, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = &p.st, p.panicFailure(r)
		}
	}()
	if p.cfg.ChaosFlushInterval > 0 && p.chaosRand == nil {
		p.chaosRand = rand.New(rand.NewSource(p.cfg.ChaosSeed))
	}
	lastCommitted := p.st.CommittedInsts
	lastCommit := p.cycle
	for {
		if p.cfg.MaxUops > 0 && p.st.CommittedInsts >= p.cfg.MaxUops {
			break
		}
		if p.fetchDone && p.rob.len() == 0 && p.aq.len() == 0 &&
			p.nextFetch >= uint64(len(p.recs)) && len(p.sq) == 0 {
			break
		}
		if p.cycle%ctxCheckInterval == 0 {
			if cerr := ctx.Err(); cerr != nil {
				return &p.st, p.failure(FailContext,
					fmt.Sprintf("run aborted at cycle %d", p.cycle), cerr)
			}
		}
		p.cycle++
		p.st.Cycles++

		p.commitStage()
		p.drainStores()
		p.writebackStage()
		p.issueStage()
		p.renameDispatchStage()
		p.frontendStage()

		// Chaos hook: force a flush from a random live µ-op. The flush
		// machinery must preserve architectural results regardless.
		if p.chaosRand != nil && p.cycle%p.cfg.ChaosFlushInterval == 0 && p.rob.len() > 0 {
			p.flushFrom(p.rob.at(p.chaosRand.Intn(p.rob.len())).seq)
			p.st.ChaosFlushes++
		}

		if p.obs != nil && p.obs.SampleEvery > 0 && p.cycle%p.obs.SampleEvery == 0 {
			p.obsSample()
		}

		if checkEvery > 0 && p.cycle%checkEvery == 0 {
			if ierr := p.CheckInvariants(); ierr != nil {
				return &p.st, p.failure(FailInvariant,
					fmt.Sprintf("violated at cycle %d", p.cycle), ierr)
			}
		}

		// Watchdog: the model must always make forward progress.
		if p.st.CommittedInsts != lastCommitted {
			lastCommitted = p.st.CommittedInsts
			lastCommit = p.cycle
		} else if p.cycle-lastCommit > watchdogInterval {
			return &p.st, p.failure(FailWatchdog,
				fmt.Sprintf("no commit for %d cycles", watchdogInterval), nil)
		}
	}
	// Emit the final partial interval so short runs still produce a row.
	if p.obs != nil && p.obs.SampleEvery > 0 && p.cycle%p.obs.SampleEvery != 0 {
		p.obsSample()
	}
	return &p.st, nil
}

// describeUop renders a µ-op for crash dumps and watchdog messages.
func describeUop(u *pUop) string {
	if u == nil {
		return "<empty>"
	}
	return fmt.Sprintf("seq=%d %v st=%d kind=%v validated=%v pendSrcs=%d",
		u.seq, u.r.Inst, u.st, u.kind, u.validated, u.pendSrcs)
}
