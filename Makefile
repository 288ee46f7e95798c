# Developer entry points. CI runs vet+build+test directly; `make bench`
# regenerates the machine-readable perf snapshot.

# Benchmarks tracked across PRs (the CHANGES.md before/after set).
BENCH_PATTERN  ?= BenchmarkE8|BenchmarkE9|BenchmarkE10|BenchmarkP1|BenchmarkIncrementalDelete
BENCH_OUT      ?= BENCH_pr10.json
BENCH_TIME     ?= 10x
# The service benchmarks (S1 query paths, S2 load interference, S3
# compiled CQs and overlay views, S4 WAL overhead and recovery) run far
# more iterations: per-op costs are microseconds, so 10x would be pure
# noise.
BENCH_SVC_PATTERN ?= BenchmarkS1|BenchmarkS2|BenchmarkS3|BenchmarkS4
BENCH_SVC_TIME    ?= 300x

.PHONY: all build test vet bench

all: vet build test

build:
	go build ./...

vet:
	go vet ./...

test:
	go test ./...

# Two passes land in one intermediate file so a failing benchmark run
# stops the target instead of feeding benchjson a partial stream.
bench:
	go test -run '^$$' -bench '$(BENCH_PATTERN)' -benchmem -benchtime $(BENCH_TIME) . > .bench.tmp
	go test -run '^$$' -bench '$(BENCH_SVC_PATTERN)' -benchmem -benchtime $(BENCH_SVC_TIME) . >> .bench.tmp
	go run ./cmd/benchjson -o $(BENCH_OUT) .bench.tmp
	@rm -f .bench.tmp
	@echo wrote $(BENCH_OUT)
