# Development targets; `make ci` is the full gate (vet, format check,
# build, race-enabled tests) and is what CI should run.

GO ?= go

.PHONY: ci vet fmt-check build test race bench bench-smoke serve-bench recovery-bench ingest-bench build-bench lvbench fuzz-smoke obs-smoke loc

# The plain (non-race) test pass is part of the gate because the
# allocation pins skip themselves under -race, where sync.Pool drops puts
# at random.
ci: vet fmt-check build test race fuzz-smoke bench-smoke obs-smoke

# bench/ is its own module, invisible to ./...; building and vetting it
# here is what makes an API change that breaks the benchmark fail the gate.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

# gofmt -l prints nonconforming files; fail loudly when there are any.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# -o /dev/null: bench/ holds a single main package, which a bare build
# would otherwise drop as bench/bench.
build:
	$(GO) build ./...
	$(GO) build -C bench -o /dev/null ./...

# bench/ is its own module: its tests (the benchmark's oracles, schedules
# and driver run against internal/index, internal/store and internal/serve)
# only run when asked for by directory.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# The predicate-layer microbenchmarks (LP kernel, region predicates,
# projection) and then the query-side benchmarks, each against its
# committed baseline (BENCH_lp.json, BENCH_query.json): a >2x ns/op
# regression on any row fails the build, as does a baseline benchmark
# missing from the run (set BENCH_NO_GATE=1 to downgrade the gate to a
# warning on slow machines). 2000 iterations is the point where the
# sub-microsecond rows reach steady state (caches and branch predictors
# warm) while the ORU row still finishes in ~1s; at 1x the LP file recorded
# its pooled "workspace" row 6x slower than the allocating "wrapper" beside
# it. The query alternation is exact-anchored on purpose: several names are
# prefixes of others (BenchmarkKSPR/BenchmarkKSPRBatch,
# BenchmarkLocate/BenchmarkLocateTopK), so every addition must be spelled
# out rather than relying on prefix matching. BenchmarkAnalyticFamilies
# builds the load benchmark's own index (IND n=8000, d=3, τ=9, ~2 s) and
# gates the three families of its `analytic` workload on that shape, with
# the box and rows columns filled before timing; BenchmarkUTKBoxFill is the
# box fill, one cell's box per op, on the same index; BenchmarkCellRows is
# one visit's geometry from the rows column, reporting the column's fill
# time and heap.
bench-smoke: serve-bench recovery-bench ingest-bench build-bench
	$(GO) test -bench . -benchtime 2000x -benchmem -run xxx \
		./internal/lp ./internal/geom \
		| $(GO) run ./cmd/benchjson -baseline BENCH_lp.json -out BENCH_lp.json
	@echo "wrote BENCH_lp.json"
	$(GO) test -bench '^(BenchmarkKSPR|BenchmarkUTK|BenchmarkORU|BenchmarkTopK|BenchmarkKSPRBatch|BenchmarkLocate|BenchmarkLocateTopK|BenchmarkCellRows|BenchmarkAnalyticFamilies|BenchmarkUTKBoxFill)$$' \
		-benchtime 2000x -benchmem -run xxx ./internal/index \
		| $(GO) run ./cmd/benchjson -baseline BENCH_query.json -out BENCH_query.json
	@echo "wrote BENCH_query.json"

# Serve-layer throughput against the committed BENCH_serve.json baseline.
# Every row but the batch one drives POST /v1/query through the whole
# handler stack, body decode included (the subset parser of
# internal/serve/codec.go; encoding/json decides no body these rows send),
# and the hand-built response: BenchmarkServeTopK is one
# top-k walk per request, with its recorder-off and trace-all pair,
# BenchmarkServeUTK is one scan of a level's box column, BenchmarkServeKSPR is
# the kSPR answer with the most regions on the canonical index (the row
# ROADMAP item 15 gates on: export copy plus the per-distinct-row
# response writer), the parallel row
# (BenchmarkServeWriterTopKParallel) is the read-lock throughput under
# GOMAXPROCS goroutines, the batch row (BenchmarkServeQueryBatchTopK: ns/op per
# 64-item envelope, ns/item its per-item share) quantifies the
# /v1/query/batch envelope, and the cache-package hit benchmark pins the
# zero-alloc lookup the benchmark's layer replay uses (the serving tier has
# no cache). Same 2x ns/op gate and BENCH_NO_GATE escape as the
# query gate. Each row runs at least 50 ms: at 100 ops a row, the
# microsecond rows read 1.1-1.7 or 2.4-4.2 us from one run to the next, so
# a baseline drawn fast failed later runs of an unchanged tree. The counts
# go with the rows' costs: ~35 us for batch and kSPR, ~5 us for UTK,
# 1.4-2.9 us for the top-k rows, ~23 ns for the cache hit.
serve-bench:
	{ $(GO) test -bench '^(BenchmarkServeQueryBatchTopK|BenchmarkServeKSPR)$$' -benchtime 2000x -benchmem -run xxx ./internal/serve; \
	  $(GO) test -bench '^BenchmarkServeUTK$$' -benchtime 20000x -benchmem -run xxx ./internal/serve; \
	  $(GO) test -bench '^BenchmarkServe(TopK|TopKRecorderOff|TopKTraceAll|WriterTopKParallel)$$' -benchtime 50000x -benchmem -run xxx ./internal/serve; \
	  $(GO) test -bench '^BenchmarkGetHit$$' -benchtime 5000000x -benchmem -run xxx ./internal/cache; } \
		| $(GO) run ./cmd/benchjson -baseline BENCH_serve.json -out BENCH_serve.json
	@echo "wrote BENCH_serve.json"

# Snapshot cold-start latency — the dominant term of a restart — heap load
# vs zero-copy mmap load across index sizes, at 2000 ops a row (at 50 a
# row swung up to 2x run to run); the other term, BenchmarkRecoverTail: one
# store.Open over a snapshot of the n=8000 ingest base plus a 64-record WAL
# tail, replayed through InsertBatch in one chunk; and
# BenchmarkFollowerInstall, a follower's cost per publish (fetch into its
# spare slot, heap load and swap of the primary's d=3 τ=9 index; the slot's
# fsync is reported as its fsync-ms extra and left out of ns/op), with the
# primary's rebuild for the
# same publish as its rebuild-ms extra. Each of its ops also pays an
# untimed rebuild, hence 10 ops. Against the committed BENCH_recovery.json
# baseline, with the same 2x ns/op gate and BENCH_NO_GATE escape as the
# query gate. (The mmap load path itself runs under -race via the regular
# `race` target.)
recovery-bench:
	{ $(GO) test -bench '^BenchmarkColdStart$$' -benchtime 2000x -benchmem -run xxx ./internal/index; \
	  $(GO) test -bench '^BenchmarkRecoverTail$$' -benchtime 50x -benchmem -run xxx ./internal/store; \
	  $(GO) test -bench '^BenchmarkFollowerInstall$$' -benchtime 10x -benchmem -run xxx ./internal/replicate; } \
		| $(GO) run ./cmd/benchjson -baseline BENCH_recovery.json -out BENCH_recovery.json
	@echo "wrote BENCH_recovery.json"

# Durable write throughput against the committed BENCH_ingest.json
# baseline: single-record inserts (the 1.0 fsyncs/rec reference, one index
# rebuild per record), the explicit batch path (0.016 fsyncs/rec and one
# rebuild per 64 records at batch=64, DESIGN.md §20), and
# ≥8 concurrent writers coalescing through group commit (fsyncs/rec must
# sit well under 1; the custom column lands in the JSON's "extra" map).
# BenchmarkIngestSchedule (internal/index, no WAL) is one round of the load
# benchmark's ingest_mixed per op — a fresh d=2, τ=6 index, then nine
# batches of 16 options with 2 accepted, so nine rebuilds over the growing
# pool.
# 64 fixed iterations: every arrival is a realistic never-dominated one that
# grows the skyband, and a fixed count keeps that growth identical between
# baseline and fresh runs. Same 2x ns/op gate — with the
# missing-baseline-name failure rule — and BENCH_NO_GATE escape as the
# query gate.
ingest-bench:
	$(GO) test -bench '^(BenchmarkIngestSingle|BenchmarkIngestBatch|BenchmarkIngestGroupCommit|BenchmarkIngestSchedule)$$' \
		-benchtime 64x -timeout 1800s -run xxx ./internal/store ./internal/index \
		| $(GO) run ./cmd/benchjson -baseline BENCH_ingest.json -out BENCH_ingest.json
	@echo "wrote BENCH_ingest.json"

# PBA⁺ index builds against the committed BENCH_build.json baseline:
# BenchmarkBuild builds the load benchmark's data (IND n=8000, seed 1) at its
# own shape, d=3 τ=9, and at d=4 τ=4, reporting cells and LP calls beside
# ns/op — a row whose ns/op moved because the index did shows it in the
# same line. BenchmarkExtendTau deepens an IND n=2000, d=3
# index from τ=3 to τ=5 (a rebuild; the τ=3 build is untimed). 3 timed
# builds per row; the target takes 10–15 s on 2 vCPU.
# Same 2x ns/op gate — with the missing-baseline-name failure rule — and
# BENCH_NO_GATE escape as the query gate.
build-bench:
	$(GO) test -bench '^(BenchmarkBuild|BenchmarkExtendTau)$$' -benchtime 3x -benchmem -run xxx ./internal/index \
		| $(GO) run ./cmd/benchjson -baseline BENCH_build.json -out BENCH_build.json
	@echo "wrote BENCH_build.json"

# Observability smoke: scrape /v1/metrics through httptest, assert both
# expositions parse — classic 0.0.4 (which must stay exemplar-free) and
# the negotiated OpenMetrics form (exemplars and # EOF included) — with
# every promised metric family present, and lint each registered metric
# name against the Prometheus naming convention. The flight-recorder endpoints are scraped under real
# traffic — /v1/admin/trace must answer well-formed JSON with a non-empty
# recorder and /v1/admin/hotcells the sampled hot-cell sketch — and the
# zero-allocation guards for the disabled tracer and disabled recorder
# paths ride along.
obs-smoke:
	$(GO) test ./internal/serve -run 'TestMetricsEndpoint|TestMetricNamesLint' -count 1
	$(GO) test ./internal/serve -count 1 \
		-run 'TestTraceAdminSmoke|TestHotCellsAdminSmoke|TestBatchTraceTree|TestDispatchAllocsRecorderOff'
	$(GO) test . -run 'TestNoopTracerZeroAlloc' -count 1

# Short fuzz runs over the parsers that face crash-damaged or hostile
# bytes: the WAL segment reader, the index deserializer (stream and
# zero-copy byte readers in lockstep), the snapshot-shipping stream
# decoder a follower trusts with network data, and the batch-query and
# batch-insert HTTP envelope decoders that take arbitrary client JSON —
# with FuzzQueryDecode holding the query bodies' subset parser to
# encoding/json.
# FuzzProject is the odd one out: no parser, but a loop whose termination
# rests on exact-arithmetic reasoning — every input must stop inside the
# step bound with a KKT-certified projection or a proof of emptiness.
fuzz-smoke:
	$(GO) test ./internal/store -run xxx -fuzz FuzzWALReplay -fuzztime 10s
	$(GO) test ./internal/index -run xxx -fuzz FuzzReadIndex -fuzztime 10s
	$(GO) test ./internal/store -run xxx -fuzz FuzzShipRead -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzBatchEnvelope -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzInsertBatchEnvelope -fuzztime 10s
	$(GO) test ./internal/serve -run xxx -fuzz FuzzQueryDecode -fuzztime 10s
	$(GO) test ./internal/geom -run xxx -fuzz FuzzProject -fuzztime 10s

lvbench:
	$(GO) run ./cmd/lvbench -exp all -scale small

# Non-test code lines per package — .go files outside _test.go, blank lines
# and lines that are only a // comment left out. This is the count ROADMAP's
# "net non-test LOC going down" and CHANGES.md's per-PR figures mean; "module"
# is everything outside bench/ (its own module, with its own budget).
# "index codec" is internal/index's serialize.go + mmap.go, the X3 encoder
# and decoder.
loc:
	@count() { find "$$@" -name '*.go' ! -name '*_test.go' -print0 | xargs -0 cat | grep -cvE '^[[:space:]]*(//|$$)'; }; \
	echo "internal/serve  $$(count internal/serve -maxdepth 1)"; \
	echo "internal/cache  $$(count internal/cache -maxdepth 1)"; \
	echo "internal/obs    $$(count internal/obs -maxdepth 1)"; \
	echo "internal/index  $$(count internal/index -maxdepth 1)"; \
	echo "index codec     $$(count internal/index/serialize.go internal/index/mmap.go)"; \
	echo "internal/store  $$(count internal/store -maxdepth 1)"; \
	echo "internal/replicate $$(count internal/replicate -maxdepth 1)"; \
	echo "root package    $$(count . -maxdepth 1)"; \
	echo "module          $$(count . -path ./bench -prune -o -type f)"
