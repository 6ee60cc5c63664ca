# Aegis reproduction — convenience targets.

GO ?= go

.PHONY: all test test-short test-race vet bench trace-sample repro repro-quick resume-demo serve-smoke load-gate cluster-gate extensions examples fuzz golden clean

all: test

# bench/ is its own module, so ./... skips it; vet and test it
# separately so an internal API change cannot break it unnoticed.
test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Short mode skips the exhaustive/soak tests.
test-short:
	$(GO) test -short ./...

# Race-enabled pass over the packages that spawn goroutines (simulation
# workers, the shard engine, the serving daemon) plus the
# concurrency-adjacent cores.
test-race:
	$(GO) test -race -short ./internal/sim/ ./internal/pcm/ ./internal/core/ \
		./internal/ecp/ ./internal/ecc/ ./internal/aegisrw/ \
		./internal/experiments/ ./internal/device/ ./internal/freep/ \
		./internal/payg/ ./internal/obs/ \
		./internal/engine/ ./internal/plane/ ./internal/bitvec/ \
		./internal/serve/ ./internal/cluster/ ./cmd/aegisd/

vet:
	$(GO) vet ./...

# Root benchmarks for profiling (-cpuprofile/-memprofile).  They gate
# nothing: allocation ceilings are Tier-1 tests (alloc_test.go), and
# wall-clock claims go through the bench/ module's spread rules.
bench:
	$(GO) test -bench=. -benchmem ./...

# Sample observability bundle: quick fig10 with a v2 run manifest and a
# 1-in-10 sampled decision-event trace (aegis.events/v1) under out/.
trace-sample:
	$(GO) run ./cmd/aegisbench -exp fig10 -preset quick \
		-json out/ -events out/fig10.events.jsonl -sample 10

# Regenerate every table and figure of the paper (minutes, one core).
repro:
	$(GO) run ./cmd/aegisbench -exp all -preset default

repro-quick:
	$(GO) run ./cmd/aegisbench -exp all -preset quick

# Demonstrate sharded, resumable runs: a cold run fills the cache, the
# rerun is served entirely from it (see DESIGN.md "Sharded runs").
resume-demo:
	$(GO) run ./cmd/aegisbench -exp fig9 -preset quick -shards 4 -cache-dir out/shards
	$(GO) run ./cmd/aegisbench -exp fig9 -preset quick -shards 4 -cache-dir out/shards -resume

# Boot aegisd on a random port, run one job through the HTTP API, save
# the aegis.job/v1 result manifest under out/serve-smoke/, drain with
# SIGTERM (see DESIGN.md §11).
serve-smoke:
	sh scripts/serve_smoke.sh out/serve-smoke

# Load + leak gate: boot aegisd with a journal, drive it with aegisload
# (multi-tenant, duplicate and fresh specs), and fail on latency or
# goroutine/FD-leak threshold breaches.  The aegis.load/v1 report lands
# in out/load-gate/ (see DESIGN.md §15).
load-gate:
	sh scripts/load_gate.sh out/load-gate

# Cluster gate: aegisload spawns a coordinator + 2-worker fleet of the
# freshly built aegisd (-cluster 2 -aegisd-bin) and drives the load-gate
# spec mix through leased shard fan-out (see DESIGN.md §16).  The
# aegis.load/v1 report lands in out/cluster-gate/.
cluster-gate:
	sh scripts/cluster_gate.sh out/cluster-gate

# All extension experiments (ablations + substrate studies).
extensions:
	$(GO) run ./cmd/aegisbench -exp extensions -preset default

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/partition
	$(GO) run ./examples/comparison
	$(GO) run ./examples/failcache
	$(GO) run ./examples/endtoend

# Brief fuzzing session over every fuzz target (the list lives in
# scripts/fuzz.sh, which CI and the nightly run call too).
fuzz:
	sh scripts/fuzz.sh 10s

# Regenerate the fixed-seed golden regression file after an intentional
# behaviour change.
golden:
	$(GO) test ./internal/experiments/ -run TestGoldenRegression -update

clean:
	$(GO) clean ./...
