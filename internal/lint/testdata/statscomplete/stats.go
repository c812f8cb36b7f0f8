// Package statsx seeds statscomplete violations for the golden test.
package statsx

import "strconv"

// RunStats has a complete dump surface: Rows enumerates every exported
// numeric field, and Skips opts out explicitly.
type RunStats struct {
	Cycles uint64
	Insts  uint64
	Skips  uint64 `json:"-"`
}

func (s *RunStats) Rows() [][2]string {
	return [][2]string{
		{"cycles", strconv.FormatUint(s.Cycles, 10)},
		{"insts", strconv.FormatUint(s.Insts, 10)},
	}
}

// DropStats increments Misses somewhere in the pipeline but never
// reports it — the exact bug class the analyzer exists for.
type DropStats struct {
	Hits   uint64
	Misses uint64 // want "DropStats.Misses is never referenced"
}

func (s *DropStats) Rows() [][2]string {
	return [][2]string{{"hits", strconv.FormatUint(s.Hits, 10)}}
}

// OrphanStats has counters but no reporting surface at all.
type OrphanStats struct { // want "OrphanStats has exported numeric counters but no dump surface"
	Retries uint64
}

// SumStats reaches its fields through a helper method called from the
// surface — the closure the analyzer must follow.
type SumStats struct {
	A uint64
	B uint64
}

func (s *SumStats) total() uint64 { return s.A + s.B }

func (s *SumStats) Rows() [][2]string {
	return [][2]string{{"total", strconv.FormatUint(s.total(), 10)}}
}

// SeriesStats dumps through the CSV time-series surface (AppendRow, as
// the obs interval sampler does). Samples is referenced from AppendRow, but
// Drops never reaches any surface.
type SeriesStats struct {
	Cycle   uint64
	Samples uint64
	Drops   uint64 // want "SeriesStats.Drops is never referenced"
}

func (s SeriesStats) AppendRow(b []byte, prev SeriesStats) []byte {
	b = strconv.AppendUint(b, s.Cycle, 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, s.Samples-prev.Samples, 10)
	return append(b, '\n')
}

// WaitAgg is a pure counter aggregate (the shape of stats.Histogram and
// stats.TopDown): a struct of numerics and numeric arrays.
type WaitAgg struct {
	Count   uint64
	Buckets [4]uint64
}

// Opaque mixes in a non-counter field, so fields of this type are not
// audited as counters.
type Opaque struct {
	Name  string
	Total uint64
}

// AggStats embeds counter aggregates: Waits reaches the surface, Slots
// is a collected-but-unreported sub-account, and Meta is not
// counter-shaped so the analyzer leaves it alone.
type AggStats struct {
	Cycles uint64
	Waits  WaitAgg
	Slots  WaitAgg // want "AggStats.Slots is never referenced"
	Meta   Opaque
}

func (s *AggStats) Rows() [][2]string {
	return [][2]string{
		{"cycles", strconv.FormatUint(s.Cycles, 10)},
		{"wait_count", strconv.FormatUint(s.Waits.Count, 10)},
	}
}

// SchedMetrics mirrors the suite scheduler's split surface: Rows
// carries the deterministic counters, WallRows the wall-time half.
// Both count as dump surfaces; Stalls reaches neither.
type SchedMetrics struct {
	Cells  uint64
	WallNs uint64
	Stalls uint64 // want "SchedMetrics.Stalls is never referenced"
}

func (m *SchedMetrics) Rows() [][2]string {
	return [][2]string{{"cells", strconv.FormatUint(m.Cells, 10)}}
}

func (m *SchedMetrics) WallRows() [][2]string {
	return [][2]string{{"wall_ns", strconv.FormatUint(m.WallNs, 10)}}
}

// BareMetrics has counters but no reporting surface at all — the
// Metrics suffix is audited exactly like Stats.
type BareMetrics struct { // want "BareMetrics has exported numeric counters but no dump surface"
	Runs uint64
}
