GO ?= go

.PHONY: build test test-race cross-arm64 test-amd64-v3 bench bench-diff ci verify e2e

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-checks the packages with real lock/atomic contention: the
# tensor worker pool and scratch arena, the model plane that hammers
# them from concurrent training loops, the metrics registry and ring
# tracer, the wire protocol (version interop), the scheduler (including
# admission-control state flips), the batch-formation engine, the fleet
# manager (concurrent scrape ingestion), the federated time-series
# store, the alert engine, the activation wire codec (pool-parallel
# pack/unpack), the TCP serving loop and the simulator that drives
# them.
test-race:
	$(GO) test -race ./internal/tensor ./internal/model ./internal/obs ./internal/split ./internal/quant ./internal/sched ./internal/batch ./internal/fleet ./internal/tsdb ./internal/alert ./internal/server ./internal/splitsim

# Vets and compiles the tensor package and its tests for arm64, where
# the generic Go row kernel stands in for the amd64 AVX2 assembly, so
# the non-assembly path keeps building.
cross-arm64:
	GOARCH=arm64 $(GO) vet ./internal/tensor && GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/tensor

# Reruns the vector-kernel tests (vector exp under GELU and softmax,
# the AXPY row kernel) with the compiler allowed to fuse a*b+c into
# FMA, as GOAMD64=v3 does: the generic reference code must keep
# rounding every product separately for the bit-identity to hold.
test-amd64-v3:
	GOAMD64=v3 $(GO) test -count=1 -run 'TestVexp|TestAxpy4|TestMatMulGeneric' ./internal/tensor

bench:
	$(GO) test -bench=. -benchmem ./...

# Multi-process end-to-end: builds menos-server, menos-client and
# menos-fleetd, launches a two-server fleet plus the control plane on
# loopback (alerting and trace federation enabled), and asserts one
# live client migration with zero lost iterations, a bit-identical
# final loss vs an unmigrated control run, a merged fleet trace with
# the migrated iteration stitched across both server processes, and
# zero alerts fired over the healthy run. Process logs, flight
# recordings and the alertz/fleet-trace documents land in
# e2e-artifacts/ (CI uploads them on failure).
e2e:
	MENOS_E2E_ARTIFACTS=$(CURDIR)/e2e-artifacts $(GO) test -tags e2e -timeout 240s -v ./e2e/

# bench-diff runs the paper-workload benchmark and compares it against
# the committed baseline; exits non-zero when the server compute-time
# p50 regresses past the threshold. RUNNER_CLASS keys the baseline per
# machine class (bench/baseline-<class>.json) so CI can diff against
# numbers recorded on its own runner type. Refresh a baseline with:
# go run ./cmd/menos-benchdiff -write-baseline [-runner-class <class>]
bench-diff:
	$(GO) run ./cmd/menos-benchdiff $(if $(RUNNER_CLASS),-runner-class $(RUNNER_CLASS))

fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

# ci mirrors .github/workflows/ci.yml: the verify job's commands in the
# same order, then the race job. Keep the two in sync.
ci: build vet fmt-check test cross-arm64 test-amd64-v3 test-race

.PHONY: fmt-check vet

verify: build test test-race
