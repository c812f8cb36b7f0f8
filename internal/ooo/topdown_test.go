package ooo

import (
	"testing"

	"helios/internal/fusion"
)

// TestTopDownConservationAcrossModes runs each workload under every
// fusion mode with invariant sweeps enabled: the slot-conservation
// check inside CheckInvariants must hold at every sampled cycle, and
// the final accounting must show useful work where the pipeline
// committed instructions.
func TestTopDownConservationAcrossModes(t *testing.T) {
	progs := map[string]string{
		"loopSum":       loopSum,
		"pairedLoads":   pairedLoads,
		"ncsfLoads":     ncsfLoads,
		"storePressure": storePressure,
	}
	modes := []fusion.Mode{
		fusion.ModeNoFusion, fusion.ModeCSFSBR,
		fusion.ModeHelios, fusion.ModeOracle,
	}
	for name, src := range progs {
		for _, mode := range modes {
			p := New(DefaultConfig(mode), recordingFor(t, src, 100_000))
			st, err := p.RunChecked(64)
			if err != nil {
				t.Fatalf("%s/%v: %v", name, mode, err)
			}
			if err := st.TopDown.CheckConservation(); err != nil {
				t.Errorf("%s/%v: %v", name, mode, err)
			}
			if st.TopDown.Cycles != st.Cycles {
				t.Errorf("%s/%v: top-down saw %d cycles, pipeline %d",
					name, mode, st.TopDown.Cycles, st.Cycles)
			}
			if st.TopDown.Retiring == 0 {
				t.Errorf("%s/%v: no retiring slots despite %d committed µ-ops",
					name, mode, st.CommittedUops)
			}
		}
	}
}

// TestTopDownFusedRetiringTracksFusion cross-checks the fused-retiring
// bucket against the fusion counters: Helios on a pair-rich workload
// must attribute slots to fused dispatch, and the no-fusion baseline
// must attribute none.
func TestTopDownFusedRetiringTracksFusion(t *testing.T) {
	helios := runMode(t, pairedLoads, fusion.ModeHelios, 100_000)
	if helios.TotalMemPairs() > 0 && helios.TopDown.FusedRetiring == 0 {
		t.Errorf("retired %d fused pairs but no fused-retiring slots",
			helios.TotalMemPairs())
	}
	base := runMode(t, pairedLoads, fusion.ModeNoFusion, 100_000)
	if base.TopDown.FusedRetiring != 0 {
		t.Errorf("no-fusion run attributed %d fused-retiring slots",
			base.TopDown.FusedRetiring)
	}
}

// TestTopDownChaosConservation forces periodic random flushes and keeps
// the invariant sweep on: squash reclassification (Move into
// bad-speculation) must stay sum-preserving under arbitrary flush
// points.
func TestTopDownChaosConservation(t *testing.T) {
	cfg := DefaultConfig(fusion.ModeHelios)
	cfg.ChaosFlushInterval = 60
	cfg.ChaosSeed = 7
	p := New(cfg, recordingFor(t, pairedLoads, 50_000))
	st, err := p.RunChecked(16)
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if st.TopDown.BadSpeculation == 0 {
		t.Errorf("chaos flushes every 60 cycles produced no bad-speculation slots")
	}
	if err := st.TopDown.CheckConservation(); err != nil {
		t.Errorf("after chaos: %v", err)
	}
}

// TestStallAQAccounting shrinks the allocation queue so the 8-wide
// fetch outruns 5-wide rename: fetch must charge StallAQ on cycles
// where the AQ alone blocks it, and the once-per-cycle stall family
// must still bound StallCycles by total cycles.
func TestStallAQAccounting(t *testing.T) {
	cfg := DefaultConfig(fusion.ModeNoFusion)
	cfg.AQSize = 8
	// pairedLoads has a 9-instruction inner loop body, so 8-wide fetch
	// outpaces 5-wide rename (loopSum's 3-op taken-branch body would cap
	// fetch below rename width and never pressure the AQ).
	p := New(cfg, recordingFor(t, pairedLoads, 100_000))
	st, err := p.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if st.StallAQ == 0 {
		t.Errorf("8-entry AQ behind 8-wide fetch never stalled")
	}
	if st.StallCycles() > st.Cycles {
		t.Errorf("stall cycles %d exceed total cycles %d", st.StallCycles(), st.Cycles)
	}
}
