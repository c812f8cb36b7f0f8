// Package report implements per-run manifests and cross-run
// differential analysis: a manifest freezes one simulation's identity
// (workload, fusion mode, build provenance, machine config) together
// with its full statistics, and a Diff aligns two manifest directories
// by workload to decompose every IPC delta into top-down bucket
// movement, fusion-coverage shifts and latency-distribution shifts.
// All rendering is deterministic: fixed precision, sorted workloads,
// no map iteration on an output path.
package report

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"

	"helios/internal/fusion"
	"helios/internal/ooo"
)

// SchemaVersion is stamped into every manifest so a reader can reject
// files written by an incompatible future layout instead of silently
// zero-filling missing fields.
const SchemaVersion = 1

// BuildInfo identifies the binary that produced a manifest, from the
// module metadata the Go linker embeds (runtime/debug.ReadBuildInfo).
type BuildInfo struct {
	Module   string // main module path
	Version  string // module version ("(devel)" for source builds)
	Go       string // toolchain that built the binary
	Revision string // VCS revision, when the build had VCS metadata
	Modified bool   // working tree was dirty at build time
}

// Build captures the running binary's identity. Fields the runtime
// cannot supply (tests, stripped builds) stay "unknown" rather than
// empty so manifest diffs show the absence explicitly.
func Build() BuildInfo {
	b := BuildInfo{Module: "unknown", Version: "unknown", Go: "unknown", Revision: "unknown"}
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return b
	}
	if info.Main.Path != "" {
		b.Module = info.Main.Path
	}
	if info.Main.Version != "" {
		b.Version = info.Main.Version
	}
	if info.GoVersion != "" {
		b.Go = info.GoVersion
	}
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			b.Revision = s.Value
		case "vcs.modified":
			b.Modified = s.Value == "true"
		}
	}
	return b
}

// Manifest is the on-disk record of one simulation run: everything a
// later differential analysis needs to align it with a counterpart run
// and explain the difference.
type Manifest struct {
	SchemaVersion int
	Workload      string
	Mode          string // fusion.Mode name (String form)
	Build         BuildInfo
	Config        ooo.Config
	Stats         ooo.Stats
	// ResultKey, Budget and Engine are stamped by heliosd (optional —
	// absent from manifests written by heliossim or older builds).
	// Together they make a manifest directory double as a warm-start
	// index for the service's result cache: ResultKey must reproduce
	// from (Workload, Config, Budget, Engine), so a reader can verify an
	// entry before trusting it.
	ResultKey string `json:",omitempty"`
	Budget    uint64 `json:",omitempty"`
	Engine    string `json:",omitempty"`
}

// NewManifest assembles a manifest for one finished run, stamping the
// current binary's build identity.
func NewManifest(workload string, mode fusion.Mode, cfg ooo.Config, st ooo.Stats) *Manifest {
	return &Manifest{
		SchemaVersion: SchemaVersion,
		Workload:      workload,
		Mode:          mode.String(),
		Build:         Build(),
		Config:        cfg,
		Stats:         st,
	}
}

// WriteFile serializes the manifest as indented JSON. encoding/json
// emits struct fields in declaration order, so the bytes are
// deterministic for identical runs.
func (m *Manifest) WriteFile(path string) error {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("report: marshal %s: %w", m.Workload, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadDir reads every *.json manifest in dir, sorted by workload name.
// Duplicate workloads and schema mismatches are errors: a diff aligned
// against an ambiguous or foreign-layout side would be quietly wrong.
func LoadDir(dir string) ([]*Manifest, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	var ms []*Manifest
	seen := make(map[string]string)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("report: %w", err)
		}
		var m Manifest
		if err := json.Unmarshal(b, &m); err != nil {
			return nil, fmt.Errorf("report: parse %s: %w", path, err)
		}
		if m.SchemaVersion != SchemaVersion {
			return nil, fmt.Errorf("report: %s has schema version %d, this tool reads %d",
				path, m.SchemaVersion, SchemaVersion)
		}
		if m.Workload == "" {
			return nil, fmt.Errorf("report: %s has no workload name", path)
		}
		if prev, dup := seen[m.Workload]; dup {
			return nil, fmt.Errorf("report: workload %q appears in both %s and %s",
				m.Workload, prev, path)
		}
		seen[m.Workload] = path
		ms = append(ms, &m)
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("report: no manifests in %s", dir)
	}
	sort.Slice(ms, func(i, j int) bool { return ms[i].Workload < ms[j].Workload })
	return ms, nil
}
