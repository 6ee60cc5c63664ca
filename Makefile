# Aegis reproduction — convenience targets.

GO ?= go

.PHONY: all test test-short test-race vet bench bench-json bench-baseline bench-gate trace-sample repro repro-quick resume-demo serve-smoke load-gate cluster-gate extensions examples fuzz golden clean

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
		./internal/ecp/ ./internal/aegisrw/ \
		./internal/experiments/ ./internal/device/ ./internal/freep/ \
		./internal/payg/ ./internal/obs/ \
		./internal/engine/ ./internal/plane/ ./internal/bitvec/ \
		./internal/serve/ ./internal/cluster/ ./cmd/aegisd/

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable benchmark pipeline: runs the root-package experiment
# benchmarks once and writes a normalized BENCH_<date>.json.  Compare two
# files with `go run ./cmd/benchdiff -old A.json -new B.json`; refresh
# the CI baseline with BENCH=BENCH_baseline.json.
#
# The simulator keeps scratch per worker, so allocs/op grow with the
# processor count.  The benchmark recipes run at GOMAXPROCS=1, the value
# the baseline was recorded at, so the alloc gate compares like with like
# on any host; benchdiff records the value and refuses to compare files
# recorded under different ones.
bench-json bench-baseline bench-gate: export GOMAXPROCS = 1
BENCH ?= BENCH_$(shell date +%Y-%m-%d).json
bench-json:
	$(GO) run ./cmd/benchdiff -run -benchtime 1x -out $(BENCH)

# Refresh the checked-in CI baseline.  Run on a quiet machine, commit
# the result alongside the perf-affecting change, and say why in NOTES
# (recorded in the file's provenance; see DESIGN.md §12).
NOTES ?= refreshed by make bench-baseline
bench-baseline:
	$(GO) run ./cmd/benchdiff -run -benchtime 1x -notes "$(NOTES)" -out BENCH_baseline.json

# Regression gate: rerun the benchmarks and compare against the
# checked-in baseline.  Wall-clock gets a loose threshold (shared
# runners are noisy); allocs/op is deterministic, so its threshold is
# tight — tightened from 10% to 5% once the RNG substrate removed the
# per-trial generator churn (DESIGN.md §17).  The comparison report
# lands in bench-compare.txt.
bench-gate:
	$(GO) run ./cmd/benchdiff -run -benchtime 1x -out BENCH_new.json
	$(GO) run ./cmd/benchdiff -old BENCH_baseline.json -new BENCH_new.json \
		-threshold 150 -alloc-threshold 5 > bench-compare.txt; \
	status=$$?; cat bench-compare.txt; exit $$status

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

# Brief fuzzing session over every fuzz target.
fuzz:
	$(GO) test -fuzz=FuzzDecode -fuzztime=10s ./internal/ecc/
	$(GO) test -fuzz=FuzzEncodeRoundTrip -fuzztime=10s ./internal/ecc/
	$(GO) test -fuzz=FuzzLayoutInvariants -fuzztime=10s ./internal/plane/
	$(GO) test -fuzz=FuzzUnmarshalBits -fuzztime=10s ./internal/core/
	$(GO) test -fuzz=FuzzWriteRead -fuzztime=10s ./internal/scheme/
	$(GO) test -fuzz=FuzzBitvec -fuzztime=10s ./internal/bitvec/
	$(GO) test -fuzz=FuzzXrandStream -fuzztime=10s ./internal/xrand/
	$(GO) test -fuzz=FuzzMetadata -fuzztime=10s ./internal/aegisrw/
	$(GO) test -fuzz=FuzzMetadata -fuzztime=10s ./internal/scheme/
	$(GO) test -fuzz=FuzzJournalReplay -fuzztime=10s ./internal/serve/
	$(GO) test -fuzz=FuzzLeaseWire -fuzztime=10s ./internal/cluster/
	$(GO) test -fuzz=FuzzWear -fuzztime=10s ./internal/pcm/
	$(GO) test -fuzz=FuzzSAFERPlan -fuzztime=10s ./internal/safer/
	$(GO) test -fuzz=FuzzResetEquivalence -fuzztime=10s ./internal/sim/
	$(GO) test -run=FuzzParseScheme -fuzz=FuzzParseScheme -fuzztime=10s ./internal/experiments/

# Regenerate the fixed-seed golden regression file after an intentional
# behaviour change.
golden:
	$(GO) test ./internal/experiments/ -run TestGoldenRegression -update

clean:
	$(GO) clean ./...
