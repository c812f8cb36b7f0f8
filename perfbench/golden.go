package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"
)

// golden.json holds the expected outputs of the program at the commit
// that defined this benchmark, for each simulated size the benchmark and
// its tests run. A speed change must leave every one of them identical.
// Regenerate with `go test -run TestGolden -update` (in this directory)
// only when a change is meant to alter simulated results.
//
//go:embed golden.json
var goldenJSON []byte

type goldens struct {
	// Fig10 is keyed by instruction budget ("0" = each workload's own).
	Fig10 map[string]fig10Golden `json:"fig10"`
	// Obs is keyed by budget, then by "workload/mode/stream"; the value
	// is the stream's SHA-256.
	Obs map[string]map[string]string `json:"obs"`
}

type fig10Golden struct {
	Table  string            `json:"table_sha256"` // SHA-256 of Figure 10's Table.String()
	Cycles map[string]uint64 `json:"cycles"`       // "workload/mode" -> simulated cycles
}

func loadGoldens() (*goldens, error) {
	var g goldens
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return &g, nil
}

func budgetKey(insts uint64) string { return strconv.FormatUint(insts, 10) }
