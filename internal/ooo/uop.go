package ooo

import (
	"helios/internal/emu"
	"helios/internal/helios"
	"helios/internal/uop"
)

// stage tracks the lifecycle of a µ-op in the pipeline.
type stage uint8

const (
	stDecoded    stage = iota // in the allocation queue
	stDispatched              // in ROB (and IQ/LQ/SQ)
	stIssued                  // executing
	stCompleted               // result produced, awaiting commit
	stCommitted
	stKilled // flushed
)

// invalidReg marks an unused physical register slot.
const invalidReg = int32(-1)

// pUop is a µ-op flowing through the pipeline. r points at its record
// in the recording being replayed; a fused µ-op's tailR points at its
// tail nucleus's record there too. µ-ops are recycled through the
// uopArena; gen/pooled are the recycling bookkeeping and survive reset.
type pUop struct {
	r   *emu.Retired
	seq uint64 // == r.Seq; unique per dynamic instruction
	ghr uint64 // global branch history at decode (before own outcome)
	st  stage

	// Arena bookkeeping: gen increments on every recycle so stale waiter
	// and event-wheel references can detect reincarnation; pooled guards
	// against double release.
	gen    uint32
	pooled bool

	// Fusion state.
	kind      uop.FuseKind
	tailR     *emu.Retired // architectural record of the fused tail
	isNCSF    bool         // fused non-consecutively: needs validation
	validated bool         // NCSF'd µ-op may issue (NCS Ready)
	unfused   bool         // NCSF fusion was undone at rename
	pred      helios.Prediction
	usedPred  bool   // fusion came from the FP (Helios) and must update it
	predGhr   uint64 // tail's decode-time GHR, for FP updates

	// Pair attributes recorded at fuse time (for stats and the region
	// check at execute).
	pairCat       uop.AddrCategory
	pairDistance  int
	pairSameBase  bool
	pairSymmetric bool

	// Tail-nucleus role (the tail object still flows to Rename for NCSF).
	// headGen snapshots the head's generation at link time: a head that
	// was released and recycled while the tail still pointed at it fails
	// the check and the pairing is treated as cancelled.
	isTailNucleus bool
	headUop       *pUop // for a tail nucleus: its head
	headGen       uint32

	// Renamed registers. Fused µ-ops use up to 3 sources and 2 dests.
	srcPhys  [3]int32
	dstPhys  [2]int32
	oldPhys  [2]int32 // previous mapping of each dest arch reg (for flush/free)
	dstArch  [2]uint8
	numSrc   int8
	ownSrcs  int8 // sources belonging to the head itself (low slots)
	numDst   int8
	ownDsts  int8 // destinations belonging to the head itself (low slots)
	pendSrcs int8 // sources not yet ready
	inReady  bool // this incarnation holds a ready-list ref (dedup guard)

	// Branch prediction outcome.
	mispredicted bool

	// Memory state.
	inLQ, inSQ   bool
	addrKnown    bool      // execute reached: EA(s) valid
	sacc         [2]access // store: accesses() cached once addrKnown is set
	sn           int8      // store: valid entries in sacc
	memLo        uint64    // combined range start
	memSpan      uint64
	forwarded    bool   // load served by store-to-load forwarding
	slowForward  bool   // load replayed to merge a partial store overlap
	committedSt  bool   // store: commit reached, in the store buffer
	draining     bool   // store: drain to cache started
	drained      bool   // store: drain complete, SQ entry reclaimed
	drainDoneAt  uint64 // store: cycle the drain completes
	waitStoreSeq uint64 // load: store-set predicted dependence
	waitStore    bool

	// Timing.
	decodedAt  uint64
	renamedAt  uint64
	issuedAt   uint64
	completeAt uint64

	// Top-down accounting (DESIGN.md §12): the bucket this µ-op's
	// dispatch slot was attributed to (-1 = no slot claimed), and the
	// hierarchy level that served its memory access (memL1D..memDRAM,
	// recorded at load issue / store drain start).
	tdBucket int8
	memLevel int8
}

// srcPending marks a source slot reserved for the tail nucleus, resolved
// only when the tail passes Rename (RaW-safe, Section IV-B2).
const srcPending = int32(-2)

// isMem reports whether the µ-op accesses memory (including fused idioms
// whose tail is a load).
func (u *pUop) isMem() bool { return u.isLoad() || u.isStore() }

func (u *pUop) isLoad() bool {
	if u.kind == uop.FuseIdiom && u.tailR != nil {
		return u.tailR.IsLoad()
	}
	return u.r.IsLoad()
}

func (u *pUop) isStore() bool { return u.r.IsStore() }

// memRecords returns the effective accesses of the µ-op: one for a simple
// memory op, two for a fused pair.
func (u *pUop) memRecords() (ea1 uint64, sz1 uint8, ea2 uint64, sz2 uint8, pair bool) {
	if u.kind == uop.FuseIdiom && u.tailR != nil {
		return u.tailR.EA, u.tailR.MemSize, 0, 0, false
	}
	if u.kind.IsMemory() && u.tailR != nil && !u.unfused {
		return u.r.EA, u.r.MemSize, u.tailR.EA, u.tailR.MemSize, true
	}
	return u.r.EA, u.r.MemSize, 0, 0, false
}

// archInstCount returns how many architectural instructions the µ-op
// retires (2 when fused).
func (u *pUop) archInstCount() uint64 {
	if u.kind != uop.FuseNone && u.tailR != nil && !u.unfused {
		return 2
	}
	return 1
}

// uopRing is a FIFO of µ-ops backed by a slice (used for the AQ and ROB).
type uopRing struct {
	buf  []*pUop
	head int
	size int
}

func newUopRing(capacity int) *uopRing {
	return &uopRing{buf: make([]*pUop, capacity)}
}

func (q *uopRing) len() int   { return q.size }
func (q *uopRing) cap() int   { return len(q.buf) }
func (q *uopRing) full() bool { return q.size == len(q.buf) }

func (q *uopRing) push(u *pUop) bool {
	if q.full() {
		return false
	}
	q.buf[(q.head+q.size)%len(q.buf)] = u
	q.size++
	return true
}

func (q *uopRing) front() *pUop {
	if q.size == 0 {
		return nil
	}
	return q.buf[q.head]
}

func (q *uopRing) pop() *pUop {
	if q.size == 0 {
		return nil
	}
	u := q.buf[q.head]
	q.buf[q.head] = nil
	q.head = (q.head + 1) % len(q.buf)
	q.size--
	return u
}

// at returns the i-th element from the front (0 = front).
func (q *uopRing) at(i int) *pUop {
	return q.buf[(q.head+i)%len(q.buf)]
}

// popBack removes the youngest element (used when flushing).
func (q *uopRing) popBack() *pUop {
	if q.size == 0 {
		return nil
	}
	idx := (q.head + q.size - 1) % len(q.buf)
	u := q.buf[idx]
	q.buf[idx] = nil
	q.size--
	return u
}

func (q *uopRing) back() *pUop {
	if q.size == 0 {
		return nil
	}
	return q.buf[(q.head+q.size-1)%len(q.buf)]
}
