# Development entry points. `make bench-gate` is the CI job's
# hot-path gate: it benchmarks the working tree and the commit BASE
# (default HEAD, so a clean tree is an A/A run; CI passes the merge
# commit's parent) side by side on this host and fails on a regression
# (see internal/benchgate for the rules). The load-baseline/slo-gate
# pair is its tail-latency sibling: cmd/capsnet-load spawns a replica,
# replays a seeded open-loop schedule, and internal/slogate diffs the
# run against SLO_BASELINE.json.

GO      ?= go
BENCHES  = $(GO) test -bench=. -benchtime=5x -benchmem -count=6 -run '^$$' . ./internal/tensor ./internal/capsnet

# The gate's benchmarks: the two kernel packages, one pass per run.
BASE       ?= HEAD
GATE_BENCH  = $(GO) test -run '^$$' -bench . -benchtime=5x -benchmem -count=1 ./internal/tensor ./internal/capsnet

# One reference operating point shared by baseline and gate so both
# always measure the same schedule (slogate rejects mismatches).
LOADFLAGS = -shape constant -rate 50 -duration 5s -seed 42 \
            -sweep 25,50,100,200 -sweep-duration 2s \
            -spawn ./capsnet-serve-bin -baseline SLO_BASELINE.json

.PHONY: build test bench bench-gate load-baseline slo-gate fmt vet lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	gofmt -l -w .

vet:
	$(GO) vet ./...

# Full static-analysis pass: the stock go vet checks plus the
# project's own invariant suite (cmd/pimcaps-vet; see DESIGN.md for
# the invariant table and the //lint:ignore suppression syntax).
lint: vet
	$(GO) run ./cmd/pimcaps-vet -stats ./...

bench:
	$(BENCHES)

# Six passes of GATE_BENCH on each side, BASE checked out into a
# temporary worktree, the side that runs first alternating. A failed
# pass fails the gate and shows the tail of its output. BENCH_base.txt
# and BENCH_new.txt keep the raw runs (for benchstat), BENCH_pr.json
# both sides' medians and the verdict.
bench-gate:
	@set -e; base=$$(mktemp -d); \
	trap 'git worktree remove --force "$$base" 2>/dev/null; rm -rf "$$base"; git worktree prune' EXIT; \
	git worktree add --quiet --detach "$$base" $(BASE); \
	: > BENCH_base.txt; : > BENCH_new.txt; \
	pass() { \
		echo "bench-gate: pass $$1/6, $$2"; \
		if ! (cd "$$3" && $(GATE_BENCH)) >> BENCH_$$2.txt; then \
			grep -v '^Benchmark' BENCH_$$2.txt | tail -n 20; exit 1; \
		fi; \
	}; \
	for i in 1 2 3 4 5 6; do \
		if [ $$((i % 2)) -eq 1 ]; then pass $$i base "$$base"; pass $$i new .; \
		else pass $$i new .; pass $$i base "$$base"; fi; \
	done; \
	$(GO) run ./cmd/pimcaps-bench -bench-input BENCH_new.txt -parent-input BENCH_base.txt -out BENCH_pr.json

# Regenerate SLO_BASELINE.json when a PR intentionally moves capacity
# or tail latency.
load-baseline:
	$(GO) build -o capsnet-serve-bin ./cmd/capsnet-serve
	$(GO) run ./cmd/capsnet-load $(LOADFLAGS) -update-baseline -- -demo-classes 3
	rm -f capsnet-serve-bin

# Check a working tree against the committed SLO baseline; SLO_pr.json
# is the CI artifact.
slo-gate:
	$(GO) build -o capsnet-serve-bin ./cmd/capsnet-serve
	$(GO) run ./cmd/capsnet-load $(LOADFLAGS) -check-baseline -out SLO_pr.json -- -demo-classes 3
	rm -f capsnet-serve-bin
