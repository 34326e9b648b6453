# Development entry points. The bench-gate pair mirrors the CI job:
# regenerate BENCH_BASELINE.json with `make bench-baseline` whenever a
# PR intentionally shifts hot-path performance, and run `make
# bench-gate` to check a working tree against it (see
# internal/benchgate for the gate rules). The load-baseline/slo-gate
# pair is its tail-latency sibling: cmd/capsnet-load spawns a replica,
# replays a seeded open-loop schedule, and internal/slogate diffs the
# run against SLO_BASELINE.json.

GO      ?= go
BENCHES  = $(GO) test -bench=. -benchtime=5x -benchmem -count=6 -run '^$$' . ./internal/tensor ./internal/capsnet

# One reference operating point shared by baseline and gate so both
# always measure the same schedule (slogate rejects mismatches).
LOADFLAGS = -shape constant -rate 50 -duration 5s -seed 42 \
            -sweep 25,50,100,200 -sweep-duration 2s \
            -spawn ./capsnet-serve-bin -baseline SLO_BASELINE.json

.PHONY: build test bench bench-baseline bench-gate load-baseline slo-gate fmt vet lint

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

bench-baseline:
	$(BENCHES) | tee BENCH_raw.txt
	$(GO) run ./cmd/pimcaps-bench -bench-input BENCH_raw.txt -baseline BENCH_BASELINE.json -update-baseline
	rm -f BENCH_raw.txt

bench-gate:
	$(BENCHES) | tee BENCH_raw.txt
	$(GO) run ./cmd/pimcaps-bench -bench-input BENCH_raw.txt -baseline BENCH_BASELINE.json -check-baseline -out BENCH_pr.json
	rm -f BENCH_raw.txt

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
