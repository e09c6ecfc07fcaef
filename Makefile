# The `check` target is the tier-1 gate (see ROADMAP.md): gofmt, vet,
# lint (the project's own static-analysis suite), build, the full test
# suite, and the race detector over every package with real
# concurrency — the UDP transport, the telemetry registry, the rack
# host timers, the sharded aggregation core, the event scheduler and
# the public session/cluster API — plus a rerun of the UDP suites in
# netio's portable mode. CI and pre-commit should run `make check`.

GO ?= go
GOFMT ?= gofmt

# Packages whose UDP traffic goes through internal/netio; the portable
# target reruns their tests in netio's one-datagram-per-syscall mode.
PORTABLE_PKGS = ./internal/transport ./internal/netio .

# Packages whose tests exercise concurrent goroutines against shared
# state; they must stay clean under the race detector.
RACE_PKGS = ./internal/transport ./internal/telemetry ./internal/rack \
	./internal/core ./internal/netsim ./internal/netio .

.PHONY: check fmt vet lint lint-one lint-allows lint-sarif build test race portable chaos fuzz bench bench-smoke bench-golden perfbench-check top-smoke flight-check elastic-smoke failover-smoke multijob-smoke examples clean

check: fmt vet lint build test race portable chaos bench-smoke bench-golden perfbench-check top-smoke flight-check elastic-smoke failover-smoke multijob-smoke

# Format gate: gofmt must have nothing to say outside testdata/, whose
# analyzer goldens align their `// want` comments by hand.
fmt:
	@out=$$($(GOFMT) -l . | grep -v '/testdata/' || true); \
	if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# Project-invariant static analysis (cmd/switchml-vet): hot-path
# allocation freedom, simulation determinism, atomics discipline,
# wire-width checks, protocol-dispatch exhaustiveness, pooled-buffer
# ownership, goroutine lifecycles and suppression hygiene. Any finding
# fails the build.
lint:
	$(GO) run ./cmd/switchml-vet

# One analyzer, for CI matrix legs: make lint-one ANALYZER=bufown
lint-one:
	$(GO) run ./cmd/switchml-vet -run $(ANALYZER)

# Suppression audit: every //switchml:allow with its justification.
# (The suppress analyzer separately fails `make lint` on stale ones.)
lint-allows:
	$(GO) run ./cmd/switchml-vet -allows

# SARIF artifact for CI annotation. The report is written even when
# there are findings; `make lint` is the gate that fails on them.
lint-sarif:
	$(GO) run ./cmd/switchml-vet -sarif > switchml-vet.sarif || true

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

# Portable-I/O gate: the same suites with the Linux mmsg/GSO fast paths
# forced off. Portable mode is the only one-datagram-per-syscall path
# and the reference leg of TestBatchedUnbatchedEquivalence, so it must
# stay green on hosts where the fast paths are available too.
portable:
	SWITCHML_NO_MMSG=1 $(GO) test $(PORTABLE_PKGS)

# Chaos gate: every fault-injection and recovery test (worker crash,
# switch restart, switch kill with fallback/failback, burst loss,
# injector chaos) under the race detector.
chaos:
	$(GO) test -race -run Fault ./internal/rack ./internal/transport .

# Short fuzz pass over the wire-format codec; corrupted and adversarial
# datagrams must never crash or round-trip incorrectly.
fuzz:
	$(GO) test -fuzz=FuzzCodec -fuzztime=10s ./internal/packet

# Quick-look evaluation run (scaled-down tensors).
bench:
	$(GO) run ./cmd/switchml-bench -scale 100

# Hot-path gate: the zero-allocation assertions (packet codec, switch
# ingress, sharded dispatch, event scheduling, batched socket I/O and
# the aggregator's stage/flush cycle) plus a smoke run of the hotpath
# micro-benchmarks. Regenerate the committed baseline with:
#   $(GO) run ./cmd/switchml-bench -scale 1 -artifacts . hotpath
bench-smoke:
	$(GO) test -run 'ZeroAlloc|Hotpath' ./internal/packet ./internal/core ./internal/netsim ./internal/rack ./internal/netio ./internal/transport ./internal/bench

# Simulator golden gate: the deterministic simulated benches must
# regenerate byte for byte. Any change to event ordering, loss draws or
# protocol behaviour in the simulator shows up as a diff against the
# committed BENCH_*.json. After an intended change, regenerate with:
#   $(GO) run ./cmd/switchml-bench -scale 10 -seed 1 -artifacts . $(GOLDEN)
GOLDEN = failover elastic fallback

bench-golden:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/switchml-bench -scale 10 -seed 1 -artifacts "$$tmp" $(GOLDEN) > /dev/null && \
	for e in $(GOLDEN); do cmp "$$tmp/BENCH_$$e.json" "BENCH_$$e.json" || exit 1; done

# Benchmark-harness gate: perfbench is its own module (it replaces
# switchml with the parent directory), so `go build ./...` never
# compiles it, yet it calls core.Switch.HandleInto, the packet codec,
# quant and the transport debug structs. Vet and unit-test it against
# the current tree, offline: the module has no external dependencies.
perfbench-check:
	cd perfbench && GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off $(GO) vet . && \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off $(GO) test .

# Observability smoke: switchml-top boots an in-process cluster over
# loopback UDP, polls its own debug endpoints and validates the JSON
# cluster view end to end.
top-smoke:
	$(GO) run ./cmd/switchml-top -selftest -json > /dev/null

# Flight-recorder gate: a scripted switch-kill must dump a
# schema-valid incident file (trigger event, metric deltas, per-slot
# state) — the acceptance check for the fault flight recorder.
flight-check:
	$(GO) test -run 'TestFlightIncident|TestFlightRecorder' . ./internal/telemetry

# Elastic-membership gate: scripted join/leave and quorum runs on the
# simulator CLI (each self-verifies its final aggregate), then a live
# UDP cluster where a worker joins a running job over the membership
# fence and drains gracefully mid-training.
elastic-smoke:
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 0.01 -steps 6 -detached 3 -join-at 3@2 -leave-at 1@4 > /dev/null
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 0.01 -steps 4 -quorum 3 -straggler-gbps 1 -late-policy reconcile > /dev/null
	./scripts/elastic_smoke.sh

# Warm-standby failover gate: the three-tier defense ladder in both
# substrates. The simulator leg kills the primary mid-step — the
# silence verdict re-homes the job onto the standby rung and the
# revive climbs it back — and must log the whole cycle ending on the
# primary. The live leg boots a real UDP cluster (primary + standby
# aggregators, three workers) and runs the scripted -down-after drill
# through the adoption roll call and fail-up probation.
failover-smoke:
	$(GO) run ./cmd/switchml-sim -workers 4 -mb 1 -steps 12 -standby 1 \
		-switch-kill 100us -switch-revive 10ms | grep "home rank now 0"
	./scripts/failover_smoke.sh

# Multi-job gate: one live aggregator serving two jobs' pools (the §6
# multi-tenant scenario) while each job's workers verify their
# aggregates; -jobs 2 must be refused with the failure detector armed.
multijob-smoke:
	./scripts/multijob_smoke.sh

# Build every example program.
examples:
	$(GO) build ./examples/...

clean:
	$(GO) clean ./...
