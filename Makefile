# AuTraScale reproduction — common tasks.

GO ?= go

.PHONY: all build test race fuzz cover bench profile check experiments summary fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/metrics/ ./internal/core/ ./internal/bo/ ./internal/gp/ ./internal/mat/ ./internal/transfer/ ./internal/flink/ ./internal/trace/ ./internal/chaos/ ./internal/fleet/ ./internal/slo/ ./internal/policy/... ./internal/experiments/ ./internal/persist/ ./internal/audit/ ./internal/workloads/ ./internal/dataflow/ ./cmd/metricsd/

# Fuzz every byte-parsing boundary the daemons trust, one target after
# another for FUZZTIME each: the snapshot decoder and encoder (both
# differential against encoding/json: the typed pass wherever it takes
# an input, the typed writer on every state json.Unmarshal reads),
# restore from arbitrary snapshot bytes, and the decision-journal record
# decoder.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/persist/
	$(GO) test -run '^$$' -fuzz '^FuzzRestore$$' -fuzztime $(FUZZTIME) ./internal/fleet/
	$(GO) test -run '^$$' -fuzz '^FuzzRecordDecoder$$' -fuzztime $(FUZZTIME) ./internal/trace/

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
# or one capture + encode of it (the write side):
#   make profile PROFILE_BENCH='BenchmarkSnapshot10k$$' PROFILE_BENCHTIME=3x
# or one BO suggestion (refit, candidate pool, sweep and climbs):
#   make profile PROFILE_BENCH='BenchmarkBOSuggest$$' PROFILE_BENCHTIME=2000x
PROFILE_BENCH = BenchmarkFleetTick10k$$
PROFILE_BENCHTIME = 500x
profile:
	$(GO) test -run '^$$' -bench '$(PROFILE_BENCH)' -benchtime $(PROFILE_BENCHTIME) \
		-cpuprofile fleet_cpu.prof -memprofile fleet_mem.prof .
	$(GO) tool pprof -top -nodecount 10 fleet_cpu.prof
	$(GO) tool pprof -top -nodecount 10 -sample_index=alloc_space fleet_mem.prof

# The full pre-merge gate: static checks, every package's tests exactly
# once (`test`: the seeded chaos, fleet, journal, tournament and replay
# gates and the allocation contracts included), the race detector on
# the concurrency-bearing packages, and the fuzz targets. Timings are
# judged only by `go run ./bench compare` over interleaved parent/change
# pairs.
check: vet test race fuzz

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
