GO ?= go

.PHONY: build test lint tools check bench bench-diff poolcheck fuzz

build:
	$(GO) build ./...

# Full test suite. The experiment harness re-runs every figure at reduced
# scale and the root package sweeps every experiment twice for worker
# determinism, so expect ~10 minutes on one core.
test:
	$(GO) test -timeout 20m ./...

# lint is the static gate: gofmt over every tracked Go file, go vet, then the
# determinism + memory-discipline
# suite (DESIGN.md §5b, §5g — walltime, rngdiscipline, goroutinescope,
# maporder, floatsum, poolescape, scratchalias, handleliveness) via the
# cmd/concordialint vettool, then staticcheck and govulncheck when they are
# installed (run `make tools` once, network required, to install the pinned
# versions from tools/go.mod). The third-party linters are gated on
# availability so the hermetic build environment still lints.
lint: build
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then \
		echo "lint: gofmt -l lists files that need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/concordialint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; run 'make tools' to enable (pinned in tools/go.mod)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed; run 'make tools' to enable (pinned in tools/go.mod)"; \
	fi

# tools installs the pinned third-party linters. tools/ is a nested module so
# the pins never leak into the main module's (empty) dependency set; this
# target needs network access, which the default build environment lacks.
tools:
	cd tools && $(GO) mod tidy && \
		$(GO) install honnef.co/go/tools/cmd/staticcheck && \
		$(GO) install golang.org/x/vuln/cmd/govulncheck

# check is the pre-merge gate: the static gate, the full suite, and the race
# detector over every parallel code path. A blanket `go test -race ./...`
# would blow the per-package timeout on small machines (the race detector
# slows the experiment harness severalfold), so race coverage is split: all
# packages in -short mode, then full runs of the packages that own
# concurrency (worker pool, RNG substreams, parallel PHY decode), then a
# targeted slice of the worker-determinism sweep at the module root.
check: lint
	$(GO) test -timeout 20m ./...
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/parallel ./internal/rng ./internal/phy ./internal/costmodel ./internal/pool ./internal/sim
	$(GO) test -race -run 'TestExperimentsWorkerDeterminism/(fig6|fig7|fig12|fig15b)' -timeout 30m .

# poolcheck is the dynamic memory-discipline gate (DESIGN.md §5g): rebuild
# the freelist owners with the sanitizer compiled in (generation side tables,
# poison-on-free, slab canaries), run their full suites and the fleet's (the
# one caller that reuses a pool Arena across runs), then drive the sanitized
# pool through a slice of the determinism sweep — the chaos and predcal
# experiments stress recycling hardest (fault retries, abandoned DAGs, storm
# yields), accelsweep drives the batched offload path, where followers leave
# the ready heap and take a run reference when submitted, and fleet hands
# every server's arena from epoch to epoch. Any use-after-recycle panics
# with the owning release seq instead of corrupting results. Keep the
# determinism regex identical to the CI job's.
poolcheck:
	$(GO) vet -tags poolcheck ./internal/pool ./internal/sim ./internal/ran ./internal/fleet
	$(GO) test -tags poolcheck -timeout 20m ./internal/pool ./internal/sim ./internal/ran ./internal/fleet
	$(GO) test -tags poolcheck -timeout 30m -run 'TestExperimentsWorkerDeterminism/(fig4a|fig4b|chaos|predcal|accelsweep|fleet)' .

# fuzz runs every fuzz target for FUZZTIME each: the parsers of user input
# (the -faults spec, a traffic trace, an events CSV), the Chrome trace
# exporter against its encoding/json reference, the latency tail recorder
# against its sorted-insertion reference, the on-demand leaf ring against
# its fixed-capacity reference and the tree grower's radix column order
# against the (value, index) pair sort. go test fuzzes one target
# per invocation, hence one line each. A failing input is saved under the
# package's testdata/fuzz/ and replayed by every later `go test`.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/traffic
	$(GO) test -run '^$$' -fuzz '^FuzzReadEventsCSV$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzChromeTrace$$' -fuzztime $(FUZZTIME) ./internal/telemetry
	$(GO) test -run '^$$' -fuzz '^FuzzTailRecorder$$' -fuzztime $(FUZZTIME) ./internal/stats
	$(GO) test -run '^$$' -fuzz '^FuzzRingBuffer$$' -fuzztime $(FUZZTIME) ./internal/predictor
	$(GO) test -run '^$$' -fuzz '^FuzzColumnOrder$$' -fuzztime $(FUZZTIME) ./internal/predictor

# One regeneration pass per paper table/figure, with timing and allocation
# stats, distilled into BENCH_pool.json (schema in EXPERIMENTS.md) so the
# perf trajectory is tracked commit over commit. benchjson echoes the stream
# through, fails on FAIL lines, and refuses to write an empty trajectory.
# The committed trajectory is stashed first so bench-diff can gate against it.
bench:
	@cp BENCH_pool.json BENCH_prev.json 2>/dev/null || true
	$(GO) test -run '^$$' -bench=. -benchmem -benchtime=1x -timeout 30m ./... | $(GO) run ./cmd/benchjson -o BENCH_pool.json

# Alloc-regression gate (DESIGN.md §5f): compare the fresh trajectory against
# the one committed before `make bench` ran; any benchmark whose allocs/op
# grew more than 10% fails the target. ns/op deltas are printed but advisory
# (shared CI runners make wall time too noisy to gate on).
bench-diff:
	@test -f BENCH_prev.json || { echo "bench-diff: run 'make bench' first (no BENCH_prev.json)"; exit 2; }
	$(GO) run ./cmd/benchjson -diff BENCH_prev.json BENCH_pool.json
