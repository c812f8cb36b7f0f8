package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestSingleFigureParallelIdentical pins `-id fig10` to the scheduler's
// determinism contract: the figure's cells fan out across -parallel
// workers, and stdout (table and -metrics counters) is byte-identical
// for any worker count.
func TestSingleFigureParallelIdentical(t *testing.T) {
	runOut := func(workers string) string {
		var stdout, stderr bytes.Buffer
		args := []string{"-id", "fig10", "-insts", "3000", "-workloads", "crc32,bitcount,sha",
			"-metrics", "-parallel", workers}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: exit %d: %s", workers, code, stderr.String())
		}
		return stdout.String()
	}
	serial, parallel := runOut("1"), runOut("2")
	if serial != parallel {
		t.Fatalf("-parallel 2 stdout differs from -parallel 1:\n--- 1 ---\n%s\n--- 2 ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "Figure 10") || !strings.Contains(serial, "pipeline runs") {
		t.Fatalf("stdout lacks the figure or the counters:\n%s", serial)
	}
}

// TestSingleFigureFansOut checks that `-id fig10` actually goes through
// the scheduler: -walltime reports a fan-out, one wall per cell.
func TestSingleFigureFansOut(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-id", "fig10", "-insts", "3000", "-workloads", "crc32,sha", "-parallel", "2", "-walltime"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	out := stderr.String()
	if got := strings.Count(out, "\ncell crc32/") + strings.Count(out, "\ncell sha/"); got != 2*6 {
		t.Fatalf("-walltime lists %d cells, want 12 (2 workloads x 6 modes):\n%s", got, out)
	}
}
