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
	"helios/internal/isa"
	"helios/internal/memdep"
	"helios/internal/obs"
	"helios/internal/trace"
)

// Pipeline is the cycle-level core model.
type Pipeline struct {
	cfg Config
	mem *cache.Hierarchy

	// Instruction supply: the committed-path stream in program order,
	// either a live emulator or a recorded trace replay cursor.
	src        trace.Source
	streamDone bool
	streamErr  error         // emulation fault that ended the stream
	window     []emu.Retired // fetched records not yet committed
	windowBase uint64        // seq of window[0]
	nextFetch  uint64        // next seq to decode
	srcNextSeq uint64        // expected seq of the next source record
	srcStarted bool          // first record pulled (srcNextSeq valid)

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
	// observed at the next commit.
	obs          *obs.Observer
	flushedAt    uint64
	flushPending bool

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

// New builds a pipeline over the given committed-path source.
func New(cfg Config, src trace.Source) *Pipeline {
	cfg.validate()
	p := &Pipeline{
		cfg:          cfg,
		mem:          cache.New(cfg.Cache),
		src:          src,
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

// Run simulates until the stream is exhausted and the pipeline drains, or
// cfg.MaxUops architectural instructions have committed. It returns the
// final statistics.
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
// RunChecked. Every abnormal exit — watchdog, stage panic, stream fault,
// corrupt record, invariant violation, cancellation — is returned as a
// *SimError with a pipeline snapshot attached; run never panics and
// never hangs.
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
		if p.streamDone && p.rob.len() == 0 && p.aq.len() == 0 &&
			int(p.nextFetch-p.windowBase) >= len(p.window) && len(p.sq) == 0 {
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
	if p.streamErr != nil {
		if se, ok := p.streamErr.(*SimError); ok {
			return &p.st, se
		}
		return &p.st, p.failure(FailStream, "committed stream ended on a fault", p.streamErr)
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

// record returns the dynamic record for seq, which must be inside the
// window.
func (p *Pipeline) record(seq uint64) *emu.Retired {
	idx := int(seq - p.windowBase)
	if idx < 0 || idx >= len(p.window) {
		return nil
	}
	return &p.window[idx]
}

// span returns records [from, to] inclusive, or nil if out of window.
func (p *Pipeline) span(from, to uint64) []emu.Retired {
	lo := int(from - p.windowBase)
	hi := int(to - p.windowBase)
	if lo < 0 || hi >= len(p.window) || lo > hi {
		return nil
	}
	return p.window[lo : hi+1]
}

// fetchRecord pulls the record for seq into the window, reading from the
// source as needed. Returns nil when the stream is exhausted first; if it
// ended on an emulation fault, the fault is latched for Run to surface.
// Each record is validated on the way in: a corrupt or reordered stream
// ends the run with a FailCorrupt SimError instead of corrupting the
// window indexing (or panicking deeper in the pipeline).
func (p *Pipeline) fetchRecord(seq uint64) *emu.Retired {
	for uint64(len(p.window))+p.windowBase <= seq && !p.streamDone {
		r, ok := p.src.Next()
		if !ok {
			p.streamDone = true
			p.streamErr = p.src.Err()
			break
		}
		if verr := p.validateRecord(r); verr != nil {
			p.streamDone = true
			p.streamErr = p.failure(FailCorrupt, "source handed a malformed record", verr)
			break
		}
		if len(p.window) == 0 {
			p.windowBase = r.Seq
		}
		p.window = append(p.window, r)
	}
	return p.record(seq)
}

// validateRecord rejects records the pipeline cannot safely simulate:
// out-of-sequence streams (which would corrupt window indexing) and
// field values that would index out of the machine's tables. This is the
// trust boundary for hostile trace files and faulty sources.
func (p *Pipeline) validateRecord(r emu.Retired) error {
	if p.srcStarted && r.Seq != p.srcNextSeq {
		return fmt.Errorf("record out of sequence: seq %d, want %d", r.Seq, p.srcNextSeq)
	}
	if int(r.Inst.Op) >= isa.NumOpcodes {
		return fmt.Errorf("seq %d: opcode %d out of range", r.Seq, r.Inst.Op)
	}
	if int(r.Inst.Rd) >= isa.NumRegs || int(r.Inst.Rs1) >= isa.NumRegs || int(r.Inst.Rs2) >= isa.NumRegs {
		return fmt.Errorf("seq %d: register out of range (rd=%d rs1=%d rs2=%d)",
			r.Seq, r.Inst.Rd, r.Inst.Rs1, r.Inst.Rs2)
	}
	if r.MemSize > 8 {
		return fmt.Errorf("seq %d: impossible access size %d", r.Seq, r.MemSize)
	}
	p.srcStarted = true
	p.srcNextSeq = r.Seq + 1
	return nil
}

// pruneWindow drops records older than the oldest seq that can still be
// needed (everything below the commit point, keeping MaxDist of history
// for oracle re-priming after a flush).
func (p *Pipeline) pruneWindow(committedSeq uint64) {
	keepFrom := committedSeq
	slack := uint64(p.cfg.PairCfg.MaxDist + 2)
	if keepFrom > slack {
		keepFrom -= slack
	} else {
		keepFrom = 0
	}
	if keepFrom <= p.windowBase {
		return
	}
	drop := int(keepFrom - p.windowBase)
	if drop > len(p.window) {
		drop = len(p.window)
	}
	// Copy down occasionally rather than re-slicing forever.
	if drop > 4096 {
		//helios:hotalloc-ok copy-down into the same backing array; length only shrinks
		p.window = append(p.window[:0], p.window[drop:]...)
		p.windowBase = keepFrom
	}
}
