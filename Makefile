# Mirrors .github/workflows/ci.yml so local runs and CI agree.

GO ?= go

.PHONY: all build lint test race soak fuzz-short experiments-smoke perfbench obs-smoke report-smoke bench-smoke bench-snapshot serve-smoke telemetry-smoke

all: build lint test

build:
	$(GO) build ./...

# lint = the CI lint job: go vet, the repo's own heliosvet analyzer suite,
# and staticcheck if it is installed (CI installs it; offline dev boxes
# may not have it, so it is soft here and hard in CI).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/heliosvet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Matches the CI soak step: the heliosd chaos soak, ten times under the
# race detector, with its span-balance audit checked once per run.
soak:
	$(GO) test -race -count=10 -run TestServiceSoak ./internal/serve

# Matches the CI fuzz job budgets.
fuzz-short:
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzReplayAccepted -fuzztime=30s ./internal/trace
	$(GO) test -fuzz=FuzzPipelineModesAgree -fuzztime=30s ./internal/ooo
	$(GO) test -fuzz=FuzzObsEncoding -fuzztime=30s ./internal/obs
	$(GO) test -fuzz=FuzzTAGEMatchesReference -fuzztime=30s ./internal/branch
	$(GO) test -fuzz=FuzzOracleMatchesReference -fuzztime=30s ./internal/fusion

experiments-smoke:
	$(GO) run ./cmd/experiments -id fig2 -insts 2000 -metrics

# Matches the CI perfbench step: perfbench/ is a separate Go module, so
# `go test ./...` never runs its goldens (per-cell cycles, Figure 10
# table digest).
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test .

# Matches the CI bench-smoke job: every benchmark must still compile and
# complete one iteration, so the committed trajectory can't bit-rot.
bench-smoke:
	$(GO) test -run 'Benchmark' -bench . -benchtime 1x ./...

# Regenerate a benchmark snapshot (see EXPERIMENTS.md for the schema).
# Usage: make bench-snapshot OUT=BENCH_pr7.json [DIFF=BENCH_pr6.json]
OUT ?= BENCH_snapshot.json
bench-snapshot:
	$(GO) run ./cmd/benchsnap -out $(OUT) -benchtime 3x -count 3 \
		$(if $(DIFF),-diff $(DIFF))

# Matches the CI heliosd-smoke job: build heliosd + heliosctl, drive
# every endpoint plus the hostile-input taxonomy, SIGTERM mid-flight,
# and assert a clean drain with exit 0.
serve-smoke:
	./scripts/heliosd_smoke.sh

# Matches the CI telemetry-smoke job: heliosd with span tracing on, a
# cached + uncached + observed request mix, OpenMetrics exposition lint,
# obs-artifact byte-identity against heliossim, and a Perfetto trace.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# Matches the CI obs-smoke job: one observed run producing a
# Konata-loadable pipeline trace plus the interval metrics CSV.
obs-smoke:
	mkdir -p obs-artifacts
	$(GO) run ./cmd/heliossim -workload crc32 -insts 50000 \
		-pipeview obs-artifacts/crc32.pipeview \
		-events obs-artifacts/crc32.events.ndjson \
		-interval-metrics obs-artifacts/crc32.intervals.csv \
		-interval 1000

# Matches the CI report-smoke job: simulate one MiBench kernel under the
# NoFusion baseline and Helios, emit per-run manifests, and render the
# cross-run differential report.
report-smoke:
	mkdir -p report-artifacts/baseline report-artifacts/helios
	$(GO) run ./cmd/heliossim -workload bitcount -insts 50000 -mode NoFusion \
		-manifest report-artifacts/baseline/bitcount.json
	$(GO) run ./cmd/heliossim -workload bitcount -insts 50000 -mode Helios \
		-manifest report-artifacts/helios/bitcount.json
	$(GO) run ./cmd/heliosreport \
		-baseline report-artifacts/baseline -target report-artifacts/helios \
		-baseline-label NoFusion -target-label Helios \
		-out report-artifacts/diff.md -csv report-artifacts/diff.csv
	@head -n 30 report-artifacts/diff.md
