# AuTraScale reproduction — common tasks.

GO ?= go

# The seed matrix every seeded gate below walks (chaos, fleet, tournament,
# replay); each gate prints the seed it is on, so a failure is reproduced
# with SEEDS=<that seed>.
SEEDS ?= 1 7 42

.PHONY: all build test race cover bench profile chaos fleet audit tournament replay check experiments summary fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/metrics/ ./internal/core/ ./internal/bo/ ./internal/gp/ ./internal/mat/ ./internal/transfer/ ./internal/flink/ ./internal/trace/ ./internal/chaos/ ./internal/fleet/ ./internal/slo/ ./internal/policy/... ./internal/experiments/ ./internal/persist/ ./internal/audit/ ./cmd/metricsd/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# CPU and heap profiles of the fleet hot path: writes fleet_cpu.prof /
# fleet_mem.prof and prints each profile's top-10 — the first stop when
# a ledger layer regresses (docs/fleet.md). Override PROFILE_BENCH to
# profile something else, and PROFILE_BENCHTIME for benchmarks whose op
# is far shorter than a fleet round, e.g. one store-attached engine tick:
#   make profile PROFILE_BENCH='BenchmarkEngineTickStore$$' PROFILE_BENCHTIME=2000000x
# or one decode + restore of the 10,000-job snapshot (the read side):
#   make profile PROFILE_BENCH='BenchmarkRestore10k$$' PROFILE_BENCHTIME=3x
PROFILE_BENCH = BenchmarkFleetTick10k$$
PROFILE_BENCHTIME = 500x
profile:
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile fleet_cpu.prof -memprofile fleet_mem.prof .
	$(GO) tool pprof -top -nodecount 10 fleet_cpu.prof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space fleet_mem.prof

# Chaos gate: a short controller soak under the heavy fault profile
# across a fixed seed matrix — every seed is printed, so a failing soak
# is reproduced by re-running examples/chaos_soak with it. The
# fault-injection, property/metamorphic, and golden-trace tests
# (docs/chaos.md) run once, under `make test`.
chaos:
	@for seed in $(SEEDS); do \
		echo "== chaos soak: heavy profile, seed $$seed =="; \
		$(GO) run ./examples/chaos_soak -profile heavy -hours 1 -seed $$seed | tail -n 5 || exit 1; \
	done

# Fleet gate: a 64-job same-seed soak under the light fault profile
# across a seed matrix — each soak runs the fleet twice in-process
# (-verify) and fails unless the per-job decision sequences are identical
# (docs/fleet.md). The control-plane unit and golden tests run once,
# under `make test`.
fleet:
	@for seed in $(SEEDS); do \
		echo "== fleet soak: 64 jobs, light profile, seed $$seed =="; \
		$(GO) run ./examples/fleet_scaling -jobs 64 -hours 1 -profile light -seed $$seed -verify | tail -n 3 || exit 1; \
	done

# Audit gate: the journal determinism proof — the same seeded fleet run
# at two worker counts must produce journals `flightctl diff` calls
# identical after corr canonicalization (docs/observability.md). The
# journal analytics tests (decoder, attribution, diff, golden journal)
# run once, under `make test`.
audit:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for w in 1 5; do \
		echo "== audit journal: 6 jobs, light profile, seed 42, workers $$w =="; \
		$(GO) run ./cmd/autrascale -jobs 6 -duration 3600 -chaos light -seed 42 \
			-workers $$w -flight "$$dir/w$$w.jsonl" | tail -n 1 || exit 1; \
	done && \
	$(GO) run ./cmd/flightctl diff "$$dir/w1.jsonl" "$$dir/w5.jsonl"

# Tournament gate: the small policy×schedule×chaos grid across a fixed
# seed matrix — three contenders, two schedules, two chaos profiles per
# seed, each cell a full controller run; any cell whose controller dies
# exits non-zero (docs/policies.md). The registry/adapter property tests
# and the tournament determinism + golden tests run once, under
# `make test`.
tournament:
	@for seed in $(SEEDS); do \
		echo "== tournament: small grid, seed $$seed =="; \
		$(GO) run ./cmd/experiments -seed $$seed -workers 4 \
			-policies bo,ds2-online,drs-true -schedules step,flash-crowd \
			-chaos none,light -duration 1800 tournament || exit 1; \
	done

# Replay gate: the durability proof (docs/durability.md). Per seed, a
# heavy-chaos fleet soak runs with periodic checkpointing and is
# abandoned mid-flight ("crash" — the checkpoint on disk is whatever the
# cadence last landed); the fleet is then restored twice from that
# checkpoint and replayed to the same absolute time, and the two flight
# journals must be `flightctl diff`-identical — restore is deterministic
# from the snapshot bytes alone, under machine kills and all. The
# persist, restore and admin-API tests run once, under `make test`.
replay:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for seed in $(SEEDS); do \
		echo "== replay: 6 jobs, heavy profile, seed $$seed =="; \
		$(GO) run ./cmd/autrascale -jobs 6 -duration 2400 -chaos heavy -seed $$seed \
			-checkpoint "$$dir/ckpt.json" -checkpoint-every 10 | tail -n 1 || exit 1; \
		for run in a b; do \
			$(GO) run ./cmd/autrascale -restore "$$dir/ckpt.json" -duration 7200 \
				-flight "$$dir/$$run.jsonl" | tail -n 1 || exit 1; \
		done; \
		$(GO) run ./cmd/flightctl diff "$$dir/a.jsonl" "$$dir/b.jsonl" || exit 1; \
	done

# The full pre-merge gate: static checks, every package's tests exactly
# once (`test`: the chaos, property, metamorphic, golden, fleet, audit,
# policy and persist layers and the allocation contracts included), the
# race detector on the concurrency-bearing packages, and then the gates,
# each running only its seeded soak or diff: the chaos soak matrix, the
# fleet determinism soak, the journal audit diff, the policy tournament
# matrix, and the crash-replay durability diff. Timings are judged only
# by `go run ./bench compare` over interleaved parent/change pairs.
check: vet test race chaos fleet audit tournament replay

# Reproduce every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/experiments all

# Grade the paper's headline claims against this build.
summary:
	$(GO) run ./cmd/experiments summary

fmt:
	gofmt -w .

# vet also fails on unformatted files: gofmt -l lists them, and any
# output is an error.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

clean:
	$(GO) clean ./...
	rm -f test_output.txt bench_output.txt fleet_cpu.prof fleet_mem.prof autrascale.test
