// Package trace materializes the committed-path dynamic µ-op stream.
//
// The paper's methodology is two-phase: the functional simulator (Spike
// there, internal/emu here) produces the committed dynamic stream once,
// and the cycle-level model consumes it per configuration. Because fusion
// never changes architectural results, the stream is identical for every
// configuration (DESIGN.md §7), so it can be recorded once and replayed
// many times — the same decoupling ChampSim-style trace-driven simulators
// use. This package provides the seam: a Source interface over the
// stream, a live emulator-backed implementation, a Recording that buffers
// the stream once and hands out O(1) replay cursors, and a versioned
// binary file format so expensive streams can be captured and re-run
// across processes.
package trace

import (
	"context"
	"fmt"

	"helios/internal/emu"
)

// Source supplies the committed-path dynamic instruction stream in
// program order. Next returns the next retired record until the stream is
// exhausted; Err reports whether the stream ended because of an emulation
// fault rather than a clean halt or bound, so consumers can fail loudly
// instead of silently truncating the run.
type Source interface {
	Next() (emu.Retired, bool)
	Err() error
}

// Live is an emulator-backed Source: each Next executes one instruction
// on the underlying machine. A step fault ends the stream and is surfaced
// via Err.
type Live struct {
	m     *emu.Machine
	limit uint64 // 0 = unbounded (run until the machine halts)
	n     uint64
	err   error
}

// NewLive returns a Source over the machine's execution, bounded by
// maxInsts retired instructions (0 = run until the program halts).
func NewLive(m *emu.Machine, maxInsts uint64) *Live {
	return &Live{m: m, limit: maxInsts}
}

// Next executes and returns the next instruction.
func (s *Live) Next() (emu.Retired, bool) {
	if s.err != nil || s.m.Halted() || (s.limit > 0 && s.n >= s.limit) {
		return emu.Retired{}, false
	}
	r, err := s.m.Step()
	if err != nil {
		s.err = fmt.Errorf("trace: emulation fault after %d µ-ops: %w", s.n, err)
		return emu.Retired{}, false
	}
	s.n++
	return r, true
}

// Err reports the emulation fault that ended the stream, if any.
func (s *Live) Err() error { return s.err }

// ctxCheckStride is how many records a ctxSource yields between context
// polls: frequent enough that a long emulation cancels promptly, rare
// enough to keep the poll off the per-record hot path.
const ctxCheckStride = 1024

// ctxSource ends the stream with ctx.Err() once ctx is done, so a long
// recording emulation honors cancellation and deadlines.
type ctxSource struct {
	ctx context.Context
	src Source
	n   uint64
	err error
}

func (s *ctxSource) Next() (emu.Retired, bool) {
	if s.err != nil {
		return emu.Retired{}, false
	}
	if s.n%ctxCheckStride == 0 {
		if err := s.ctx.Err(); err != nil {
			s.err = err
			return emu.Retired{}, false
		}
	}
	s.n++
	return s.src.Next()
}

func (s *ctxSource) Err() error {
	if s.err != nil {
		return s.err
	}
	return s.src.Err()
}

// WithContext bounds src by ctx: once ctx is cancelled or past its
// deadline the stream ends and Err reports ctx.Err().
func WithContext(ctx context.Context, src Source) Source {
	return &ctxSource{ctx: ctx, src: src}
}
