# Local developer workflow. CI reuses these targets so the two never
# drift: .github/workflows/ci.yml calls `make lint`, `make test` and
# `make bench-compare` rather than restating the commands.

GO ?= go

# Pinned external tool versions (also pinned in CI). Installed on
# demand by `make lint-extra`; the core `lint` target needs nothing
# beyond the repository itself.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.3

.PHONY: all build lint lint-budget lint-extra test bench bench-compare perfbench-check fmt-check scenarios sweep-cached telemetry-smoke countdown-smoke scale-smoke simd-smoke paper-check

all: build lint test

build:
	$(GO) build ./...

# Determinism and hot-path invariants, machine-enforced. See DESIGN.md
# "Determinism invariants & static analysis".
lint: fmt-check
	$(GO) vet ./...
	$(GO) run ./cmd/desalint ./...

# Lint with a wall-clock budget: the dataflow-backed analyzers
# (cachekey, sharedstate) must stay cheap enough to run on
# every push, so CI uses this target and fails if the full lint pass
# exceeds 120 seconds — only a real blow-up (say, an accidental
# inter-procedural fixpoint) trips it, not runner noise.
lint-budget:
	@start=$$(date +%s); \
	$(MAKE) lint || exit 1; \
	end=$$(date +%s); \
	elapsed=$$((end - start)); \
	echo "lint took $${elapsed}s (budget 120s)"; \
	if [ $$elapsed -gt 120 ]; then echo "lint exceeded the 120s budget"; exit 1; fi

# External linters; kept out of `lint` so the default workflow works
# fully offline. CI runs this with the same pinned versions.
lint-extra:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION) ./...
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

test:
	$(GO) test -race -shuffle=on ./...

# Full benchmark run for local perf work.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

# The hot-path benchmark set (bench_test.go): the event kernel (delays
# under 1 µs, and the MAC's spread of delays at 40 and 9000 pending) and
# channel micro-benches (omni, and directional under the NAV oracle),
# one simulated second dense, sparse and mobile, the
# analytical Fig. 5 sweep, the result cache cold/warm, telemetry off/on,
# the 10⁴-node scale trio, the paper-cell Build and the served scenario
# cold/warm.
HOTPATH = ^(BenchmarkScheduler|BenchmarkSchedulerSpread|BenchmarkChannelBroadcast|BenchmarkChannelDirectional|BenchmarkSimulationSecond|BenchmarkSimulationSecondSparse|BenchmarkSimulationSecondMobile|BenchmarkFig5|BenchmarkScenarioCache|BenchmarkTelemetryOff|BenchmarkTelemetryOn|BenchmarkBuildLargeN|BenchmarkBuildPaper|BenchmarkMobilityChurn|BenchmarkScaleSimulationSecond|BenchmarkServedScenario)$$

# Paired regression gate: `make bench-compare BASE=<git revision>`.
# Builds the root package's test binary at BASE (in a temporary git
# worktree) and at the working tree, then runs HOTPATH on both, two
# rounds each in alternating order (base, head, head, base), on this
# machine. benchcmp.awk fails the gate when a benchmark both sides
# define has a best ns/op, best B/op or best allocs/op over 2x BASE's,
# or allocates bytes or objects where BASE allocated nothing. Both
# builds run on one host in one session, so neither the machine nor the
# Go version moves the verdict; the 2x ceiling leaves room for
# shared-runner noise. A panic or compile error in either build fails
# the gate too.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<git revision>"; exit 2; }
	@set -e; \
	dir=.bench-compare; \
	rm -rf $$dir; git worktree prune; \
	trap 'git worktree remove --force $$dir/base 2>/dev/null; rm -rf $$dir' EXIT; \
	git worktree add --quiet --detach $$dir/base "$(BASE)"; \
	(cd $$dir/base && $(GO) test -c -o ../base.test .); \
	$(GO) test -c -o $$dir/head.test .; \
	for run in base.1 head.1 head.2 base.2; do \
		side=$${run%.*}; src=.; [ $$side = head ] || src=$$dir/base; \
		echo "bench-compare: round $${run#*.}, $$side"; \
		(cd $$src && "$(CURDIR)/$$dir/$$side.test" -test.run '^$$' -test.bench '$(HOTPATH)' \
			-test.benchtime 0.3s -test.benchmem -test.timeout 10m) > $$dir/$$run.txt 2>&1 \
			|| { cat $$dir/$$run.txt; exit 1; }; \
	done; \
	awk -f benchcmp.awk side=base $$dir/base.1.txt $$dir/base.2.txt side=head $$dir/head.1.txt $$dir/head.2.txt

# perfbench (the repo benchmark) is its own module, repro/perfbench, so
# the root `go build/vet/test ./...` never compile it. This target vets
# and tests it against the working tree (its go.mod replaces repro with
# ../), so a change to an API it uses fails here rather than in the
# benchmark run.
perfbench-check:
	$(GO) -C perfbench vet .
	$(GO) -C perfbench test .

# The incremental-sweep loop: the same reduced fig6 sweep twice through
# one content-addressed cache. The second pass must be served entirely
# from disk (the stats line on stderr shows hits) and print identical
# tables.
sweep-cached:
	rm -rf .sweep-cache
	$(GO) run ./cmd/experiments -run fig6 -topologies 5 -duration 1s -cache .sweep-cache -cache-stats
	$(GO) run ./cmd/experiments -run fig6 -topologies 5 -duration 1s -cache .sweep-cache -cache-stats

# The paper-scale reproduction as a gate: regenerate every static table
# and figure (50 topologies per cell, 10 s each; about a minute on 2
# cores) and byte-compare the output with the committed
# results_paper_scale.txt. On a mismatch .paper-check.txt stays behind
# for diffing. A change that moves a static result regenerates the
# committed file on purpose and says why in CHANGES.md.
paper-check:
	$(GO) run ./cmd/experiments -run all -topologies 50 -duration 10s -csv > .paper-check.txt
	cmp .paper-check.txt results_paper_scale.txt
	rm -f .paper-check.txt

# Telemetry round trip on the canonical trajectory scenario: two exports
# of the same run must be byte-identical (the determinism contract), a
# merged 3-topology export must not depend on the worker count, simtrace
# must be able to summarize and filter the artifact, and an export sent
# to stdout must pipe straight into `simtrace summarize -`.
telemetry-smoke:
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -telemetry .telemetry-a.jsonl
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -telemetry .telemetry-b.jsonl
	cmp .telemetry-a.jsonl .telemetry-b.jsonl
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -topologies 3 -workers 1 -telemetry .telemetry-w1.jsonl
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -topologies 3 -workers 3 -telemetry .telemetry-w3.jsonl
	cmp .telemetry-w1.jsonl .telemetry-w3.jsonl
	$(GO) run ./cmd/simtrace summarize .telemetry-a.jsonl
	$(GO) run ./cmd/simtrace filter -kind agg .telemetry-a.jsonl > /dev/null
	$(GO) run ./cmd/netsim -scheme drts-dcts -n 5 -beam 60 -duration 100ms -telemetry - | $(GO) run ./cmd/simtrace summarize -
	rm -f .telemetry-a.jsonl .telemetry-b.jsonl .telemetry-w1.jsonl .telemetry-w3.jsonl

# Exact-countdown check: the canonical result bytes of two committed
# scenarios must equal the expected files recorded with the slot-by-slot
# backoff kernel (DESIGN.md §12). fastforward-sparse.json is the sparse
# mobile pair whose countdowns span long idle stretches;
# paper-drts-dcts.json is the saturated paper setup.
countdown-smoke:
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/fastforward-sparse.json -json > .countdown-sparse.json
	cmp .countdown-sparse.json internal/sim/testdata/expected/fastforward-sparse.out
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/paper-drts-dcts.json -json > .countdown-paper.json
	cmp .countdown-paper.json internal/sim/testdata/expected/paper-drts-dcts.out
	rm -f .countdown-sparse.json .countdown-paper.json

# Large-N end-to-end smoke: the committed ~10k-node uniform scenario
# (kept in testdata/scale/ so the `scenarios` glob skips it) must build,
# run, and export bounded telemetry inside the same wall-clock budget
# pattern as lint-budget. It exercises the whole scale path at once:
# batched Build, the spatial grid, and the telemetry.maxNodes
# cardinality cap (the header must report the 4-node sample).
scale-smoke:
	@start=$$(date +%s); \
	$(GO) run ./cmd/netsim -scenario internal/sim/testdata/scale/uniform-10k.json -telemetry .scale.jsonl || exit 1; \
	grep -q '"sampledNodes":4' .scale.jsonl || { echo "telemetry header lacks the bounded-cardinality sample count"; exit 1; }; \
	rm -f .scale.jsonl; \
	end=$$(date +%s); \
	elapsed=$$((end - start)); \
	echo "scale-smoke took $${elapsed}s (budget 120s)"; \
	if [ $$elapsed -gt 120 ]; then echo "scale-smoke exceeded the 120s budget"; exit 1; fi

# Daemon end-to-end smoke: boot cmd/simd on a random port, POST a
# committed scenario and byte-compare the served body against a local
# `netsim -scenario ... -json` run (the service's correctness gate: all
# three serve paths — fresh run, cache hit, coalesced — must produce
# identical bytes). A repeat POST must be a cache hit with the stats
# counters to prove it, also for a scenario with a telemetry section
# posted without ?telemetry=1 (no sink, so its result is cached like any
# other), a telemetry stream must pipe straight into
# `simtrace summarize -`, and SIGTERM must drain and exit 0.
simd-smoke:
	@set -e; \
	rm -rf .simd-smoke; mkdir -p .simd-smoke; \
	$(GO) build -o .simd-smoke/simd ./cmd/simd; \
	$(GO) build -o .simd-smoke/netsim ./cmd/netsim; \
	$(GO) build -o .simd-smoke/simtrace ./cmd/simtrace; \
	.simd-smoke/simd -addr 127.0.0.1:0 -cache .simd-smoke/cache > .simd-smoke/log 2>&1 & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true' EXIT; \
	i=0; until grep -q 'listening on' .simd-smoke/log 2>/dev/null; do \
		i=$$((i + 1)); [ $$i -le 100 ] || { echo "simd never became ready:"; cat .simd-smoke/log; exit 1; }; \
		sleep 0.1; \
	done; \
	addr=$$(sed -n 's/^simd: listening on //p' .simd-smoke/log); \
	echo "simd up at $$addr"; \
	.simd-smoke/netsim -scenario internal/sim/testdata/paper-drts-dcts.json -json > .simd-smoke/local.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/paper-drts-dcts.json "http://$$addr/v1/runs" > .simd-smoke/served1.json; \
	cmp .simd-smoke/local.json .simd-smoke/served1.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/paper-drts-dcts.json "http://$$addr/v1/runs" > .simd-smoke/served2.json; \
	cmp .simd-smoke/local.json .simd-smoke/served2.json; \
	.simd-smoke/netsim -scenario internal/sim/testdata/telemetry-trajectory.json -json > .simd-smoke/local-tel.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/telemetry-trajectory.json "http://$$addr/v1/runs" > .simd-smoke/served-tel1.json; \
	cmp .simd-smoke/local-tel.json .simd-smoke/served-tel1.json; \
	curl -sf -X POST --data-binary @internal/sim/testdata/telemetry-trajectory.json "http://$$addr/v1/runs" > .simd-smoke/served-tel2.json; \
	cmp .simd-smoke/local-tel.json .simd-smoke/served-tel2.json; \
	echo "served bytes match local run (fresh and cached, with and without a telemetry section)"; \
	curl -sf "http://$$addr/v1/stats" > .simd-smoke/stats.json; \
	grep -q '"cacheMisses":2' .simd-smoke/stats.json || { echo "stats lack the two first-run misses:"; cat .simd-smoke/stats.json; exit 1; }; \
	grep -q '"cacheHits":2' .simd-smoke/stats.json || { echo "stats lack the two repeat-POST hits:"; cat .simd-smoke/stats.json; exit 1; }; \
	grep -q '"executed":2' .simd-smoke/stats.json || { echo "stats show re-execution on a repeat POST:"; cat .simd-smoke/stats.json; exit 1; }; \
	curl -sf -X POST --data-binary @internal/sim/testdata/telemetry-trajectory.json "http://$$addr/v1/runs?telemetry=1" | .simd-smoke/simtrace summarize -; \
	kill -TERM $$pid; wait $$pid; \
	trap - EXIT; \
	echo "simd-smoke passed (graceful shutdown exited 0)"; \
	rm -rf .simd-smoke

fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Runs every checked-in scenario file end to end (shortened to keep CI
# fast): the declarative path must stay able to execute its own goldens.
scenarios:
	@for f in internal/sim/testdata/*.json; do \
		echo "== $$f"; \
		$(GO) run ./cmd/netsim -scenario $$f || exit 1; \
	done
