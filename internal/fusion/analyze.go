package fusion

import (
	"fmt"

	"helios/internal/emu"
	"helios/internal/trace"
	"helios/internal/uop"
)

// TraceStats tabulates the fusion potential of a committed instruction
// stream. It backs the motivation figures: Figure 2 (memory vs other
// idiom µ-ops), Figure 4 (address categories of consecutive pairs) and
// Figure 5 (non-consecutive and different-base-register potential).
type TraceStats struct {
	TotalUops uint64
	MemUops   uint64

	// Figure 2: µ-ops covered by consecutive (decode-window) fusion.
	MemPairUops    uint64 // µ-ops in consecutive memory pairing idioms
	OtherIdiomUops uint64 // µ-ops in non-memory idioms

	// Figure 4: consecutive (distance 1) pairs by address category.
	CSFPairs      uint64
	CSFByCategory [6]uint64 // indexed by uop.AddrCategory

	// Figure 5: non-consecutive additions and base-register breakdown.
	NCSFPairs      uint64
	NCSFByCategory [6]uint64
	CSFSameBase    uint64
	CSFDiffBase    uint64
	NCSFSameBase   uint64
	NCSFDiffBase   uint64
	CSFAsymmetric  uint64
	NCSFAsymmetric uint64

	// Catalyst character of NCSF pairs (Related Work discussion).
	NCSFWithRegHazard uint64 // RaW/WaR between catalyst and tail
	DistanceSum       uint64 // for the mean head-tail distance
}

// PairsTotal returns all pairs found (consecutive + non-consecutive).
func (s *TraceStats) PairsTotal() uint64 { return s.CSFPairs + s.NCSFPairs }

// Rows enumerates every counter as (name, value) pairs in declaration
// order — the dump surface the statscomplete analyzer audits, so a
// counter added to TraceStats without a row here fails lint.
func (s *TraceStats) Rows() [][2]string {
	u := func(v uint64) string { return fmt.Sprint(v) }
	rows := [][2]string{
		{"total_uops", u(s.TotalUops)},
		{"mem_uops", u(s.MemUops)},
		{"mem_pair_uops", u(s.MemPairUops)},
		{"other_idiom_uops", u(s.OtherIdiomUops)},
		{"csf_pairs", u(s.CSFPairs)},
	}
	for i, v := range s.CSFByCategory {
		rows = append(rows, [2]string{
			fmt.Sprintf("csf_by_category[%s]", uop.AddrCategory(i)), u(v)})
	}
	rows = append(rows, [2]string{"ncsf_pairs", u(s.NCSFPairs)})
	for i, v := range s.NCSFByCategory {
		rows = append(rows, [2]string{
			fmt.Sprintf("ncsf_by_category[%s]", uop.AddrCategory(i)), u(v)})
	}
	return append(rows, [][2]string{
		{"csf_same_base", u(s.CSFSameBase)},
		{"csf_diff_base", u(s.CSFDiffBase)},
		{"ncsf_same_base", u(s.NCSFSameBase)},
		{"ncsf_diff_base", u(s.NCSFDiffBase)},
		{"csf_asymmetric", u(s.CSFAsymmetric)},
		{"ncsf_asymmetric", u(s.NCSFAsymmetric)},
		{"ncsf_with_reg_hazard", u(s.NCSFWithRegHazard)},
		{"distance_sum", u(s.DistanceSum)},
	}...)
}

// MeanDistance returns the average head→tail distance in µ-ops.
func (s *TraceStats) MeanDistance() float64 {
	if s.PairsTotal() == 0 {
		return 0
	}
	return float64(s.DistanceSum) / float64(s.PairsTotal())
}

// AnalyzeTrace scans a recorded committed stream, in program order, and
// computes its fusion potential.
func AnalyzeTrace(rec *trace.Recording, cfg PairConfig) TraceStats {
	var st TraceStats
	oracle := NewOracle(cfg)

	var pending emu.Retired // previous µ-op not yet consumed by a pair
	havePending := false

	for _, r := range rec.Records() {
		st.TotalUops++
		if r.MemSize != 0 {
			st.MemUops++
		}

		// Consecutive idiom matching (Figure 2): greedy, non-overlapping.
		if havePending {
			switch {
			case MatchNonMemIdiom(pending.Inst, r.Inst) != IdiomNone:
				st.OtherIdiomUops += 2
				havePending = false
			default:
				if _, ok := MatchMemPair(pending.Inst, r.Inst, true); ok {
					st.MemPairUops += 2
					havePending = false
				} else {
					pending = r
				}
			}
		} else {
			pending = r
			havePending = true
		}

		// Address-based pairing (Figures 4 & 5).
		if p, ok := oracle.Observe(r); ok {
			st.DistanceSum += uint64(p.Distance)
			if p.Consecutive() {
				st.CSFPairs++
				st.CSFByCategory[p.Category]++
				if p.SameBase {
					st.CSFSameBase++
				} else {
					st.CSFDiffBase++
				}
				if !p.Symmetric {
					st.CSFAsymmetric++
				}
			} else {
				st.NCSFPairs++
				st.NCSFByCategory[p.Category]++
				if p.SameBase {
					st.NCSFSameBase++
				} else {
					st.NCSFDiffBase++
				}
				if !p.Symmetric {
					st.NCSFAsymmetric++
				}
				// Inspect the catalyst for register hazards.
				if span := spanFor(oracle.window(), p); span != nil && CatalystHasRegHazard(span) {
					st.NCSFWithRegHazard++
				}
			}
		}
	}
	return st
}

// spanFor extracts the head..tail slice from the recent window.
func spanFor(recent []emu.Retired, p Pairing) []emu.Retired {
	if len(recent) == 0 {
		return nil
	}
	base := recent[0].Seq
	hi := int(p.HeadSeq - base)
	ti := int(p.TailSeq - base)
	if hi < 0 || ti >= len(recent) || hi >= ti {
		return nil
	}
	return recent[hi : ti+1]
}
