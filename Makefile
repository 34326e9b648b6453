# Development entry points. The two gates compare the working tree
# with the commit BASE (default HEAD, so a clean tree is an A/A run; CI
# passes the merge commit's parent), both sides measured on this host:
# `make bench-gate` on the hot kernels' ns/op and allocs/op (see
# internal/benchgate), `make slo-gate` on tail latency under load —
# cmd/capsnet-load replays one seeded open-loop schedule against each
# side's capsnet-serve and internal/slogate compares the two runs.

GO      ?= go
BENCHES  = $(GO) test -bench=. -benchtime=5x -benchmem -count=6 -run '^$$' . ./internal/tensor ./internal/capsnet

# The gate's benchmarks: the two kernel packages, one pass per run.
BASE       ?= HEAD
GATE_BENCH  = $(GO) test -run '^$$' -bench . -benchtime=5x -benchmem -count=1 ./internal/tensor ./internal/capsnet

# The slo-gate's operating point, the same for both sides (slogate
# rejects a pair measured at different ones).
LOADFLAGS = -shape constant -rate 50 -duration 5s -seed 42 \
            -sweep 25,50,100,200 -sweep-duration 2s

.PHONY: build test bench bench-gate slo-gate fmt vet lint

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

# The two gates share one recipe. It checks BASE out into $$base, a
# temporary git worktree inside the scratch directory $$tmp, both
# removed when the recipe exits, however it exits; then it runs the
# target's own steps against that parent.
#
# bench-gate: six passes of GATE_BENCH on each side, the side that runs
# first alternating. A failed pass fails the gate and shows the tail of
# its output. BENCH_base.txt and BENCH_new.txt keep the raw runs (for
# benchstat), BENCH_pr.json both sides' medians and the verdict.
#
# slo-gate: capsnet-serve built from BASE and from the working tree,
# each driven once by the working tree's capsnet-load: the parent
# first, writing SLO_base.json, then the change, gated against it and
# writing SLO_pr.json (the CI artifacts).
bench-gate slo-gate:
	@set -e; tmp=$$(mktemp -d); base="$$tmp/base"; \
	trap 'git worktree remove --force "$$base" 2>/dev/null; rm -rf "$$tmp"; git worktree prune' EXIT; \
	git worktree add --quiet --detach "$$base" $(BASE); \
	if [ $@ = bench-gate ]; then \
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
		$(GO) run ./cmd/pimcaps-bench -bench-input BENCH_new.txt -parent-input BENCH_base.txt -out BENCH_pr.json; \
	else \
		(cd "$$base" && $(GO) build -o "$$tmp/serve-base" ./cmd/capsnet-serve); \
		$(GO) build -o "$$tmp/serve-new" ./cmd/capsnet-serve; \
		$(GO) build -o "$$tmp/load" ./cmd/capsnet-load; \
		echo "slo-gate: parent ($(BASE))"; \
		"$$tmp/load" $(LOADFLAGS) -spawn "$$tmp/serve-base" -out SLO_base.json -- -demo-classes 3; \
		echo "slo-gate: change"; \
		"$$tmp/load" $(LOADFLAGS) -spawn "$$tmp/serve-new" -parent SLO_base.json -out SLO_pr.json -- -demo-classes 3; \
	fi
