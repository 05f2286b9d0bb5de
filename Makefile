GO ?= go

# Coverage floor over every package under internal/ (the library the mains
# wrap; examples/ and cmd/ mains are exercised by running them, not by unit
# tests). Measured 89.3% (88.9% before the v1 wire codec was deleted);
# `make cover` fails if the tree regresses below the floor.
COVER_MIN ?= 85.0

# How long `make fuzz-short` runs each fuzz target.
FUZZTIME ?= 10s

# Knobs for the `make chaos` long campaign (see internal/chaos).
CHAOS_SEED ?= 1
CHAOS_DURATION ?= 5m
CHAOS_INTENSITY ?= 2

.PHONY: build test fmt-check test-bench race vet bench bench-smoke bench-parallel bench-allocs bench-longwindow bench-cluster bench-rebalance bench-ingest bench-replay bench-restore bench-e2e loc cover fuzz-short crash-test lint-footprints chaos-short chaos

build:
	$(GO) build ./...

test: fmt-check lint-footprints chaos-short bench-allocs bench-longwindow bench-ingest bench-replay bench-restore bench-smoke test-bench
	$(GO) test ./...

# Formatting gate: every Go file in the tree, bench/ included, must be as
# gofmt writes it. Fails and names the files otherwise (or when gofmt cannot
# parse one).
fmt-check:
	@out=$$(gofmt -l .) || exit 1; \
	if [ -n "$$out" ]; then echo "FAIL: gofmt -l lists files not gofmt-formatted:"; echo "$$out"; exit 1; fi; \
	echo "OK: gofmt -l is clean"

# The benchmark under bench/ is its own module (go test ./... at the root
# does not descend into it) and is frozen between benchmark PRs, so it
# compiles against this module's API as that API stood. Running its tests
# here makes a change that breaks that surface fail locally.
test-bench:
	cd bench && $(GO) test ./...

# Footprint convention gate: every registered prescriptive capability must
# declare a non-empty write set (oda.LintFootprints), and every built-in
# must declare a footprint at all. Runs the dedicated tests only, so it is
# cheap enough to front every test/race invocation.
lint-footprints:
	$(GO) test -run 'TestFootprintLint|TestFullGridDeclaresFootprints' .

# Race-detector pass over every package with shared-state concurrency:
# the TSDB (its registry and per-series locks, and its cursor pool), the
# grid's explicit worker pool, the simulation (its agent scrapes sources
# concurrently), the async
# collection pipeline (slow-sink / backpressure stress lives in collector's
# pipeline tests) and the scrape fan-out, the
# wire server/client, the query front door, the cluster router (scatter
# goroutines, hint queues, replication pump) and the node that assembles
# them (its watermark and counters, its drain on Close). go vet runs first as a cheap
# gate; the chaos package's race pass lives in chaos-short.
race: vet lint-footprints chaos-short
	$(GO) test -race ./internal/timeseries ./internal/oda ./internal/simulation ./internal/collector ./internal/persist ./internal/wire ./internal/resultcache ./internal/quota ./internal/queryfront ./internal/cluster ./internal/node ./cmd/odad

# Seeded short chaos campaigns under the race detector: the deterministic
# fault-injection harness (internal/chaos) runs 30s-virtual-time campaigns
# across collector → wire → store and checks all five end-to-end
# invariants (sample conservation, byte-identical crash recovery,
# planner/model bit-parity, front-door quota/cache consistency, the
# kill-one-peer cluster leg: conservation across peers, hinted-handoff
# drain, replication convergence, degraded-read and post-heal query
# parity; and the membership leg: a node joins AND another dies
# mid-campaign — epoch convergence, 1/N movement bound, per-key
# durability and post-heal parity). A failure prints a one-line repro
# string replayable via
# `odachaos -repro`.
chaos-short:
	$(GO) test -race -count=1 ./internal/chaos

# Long fault-injection campaign via the standalone driver; emits the full
# summary (counters, verdicts, fingerprint) as JSON for CI artifacts.
# Override CHAOS_SEED / CHAOS_DURATION / CHAOS_INTENSITY to vary it.
chaos:
	$(GO) run ./cmd/odachaos -seed $(CHAOS_SEED) -duration $(CHAOS_DURATION) -intensity $(CHAOS_INTENSITY) -json

# Durability torture pass: the randomized torn-write harness, the
# kill-and-recover matrix across all fsync policies, and the concurrent
# group-commit test, all under the race detector.
crash-test:
	$(GO) test -race -v -run 'TestTornWrite|TestKillAndRecover|TestConcurrentAppendersGroupCommit|TestCorruptNewestSnapshot|TestAcknowledgedAppends' ./internal/persist

# Coverage report with a regression gate: prints the total statement
# coverage of ./internal/... and fails when it drops below COVER_MIN.
cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	@$(GO) tool cover -func=cover.out | tail -1
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	awk -v t=$$total -v min=$(COVER_MIN) 'BEGIN { \
		if (t+0 < min+0) { printf "FAIL: total coverage %.1f%% below threshold %.1f%%\n", t, min; exit 1 } \
		printf "OK: total coverage %.1f%% >= threshold %.1f%%\n", t, min }'

# Short fuzzing pass over the fuzz targets (native Go fuzzing; seed
# corpora live in testdata/fuzz/). go test accepts one -fuzz pattern per
# package, so the targets run back to back.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzValueColumn -fuzztime $(FUZZTIME) ./internal/binenc
	$(GO) test -run xxx -fuzz FuzzBitstreamRoundTrip -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzBitWriterParity -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzBitReaderParity -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzTierGroupRoundTrip -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzDecimalChunkRoundTrip -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzStoreModel -fuzztime $(FUZZTIME) ./internal/timeseries
	$(GO) test -run xxx -fuzz FuzzDictDecode -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run xxx -fuzz FuzzWALReplay -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run xxx -fuzz FuzzWALAppendRecord -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run xxx -fuzz FuzzQueryRangeParse -fuzztime $(FUZZTIME) ./internal/queryfront
	$(GO) test -run xxx -fuzz FuzzChaosScheduleParse -fuzztime $(FUZZTIME) ./internal/chaos
	$(GO) test -run xxx -fuzz FuzzRingPlacement -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run xxx -fuzz FuzzTopologyTransition -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run xxx -fuzz FuzzQueryProto -fuzztime $(FUZZTIME) ./internal/cluster

vet:
	$(GO) vet ./...

bench:
	$(GO) test -run xxx -bench . -benchtime 1s ./...

# Every root benchmark, one iteration each (~2 s): a benchmark that b.Fatals
# fails the build here instead of rotting unnoticed — the two grid sweeps did
# for eleven PRs. Part of `make test`; it checks that they run, not how fast.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

# Allocation budget gate: the cursor sweep, the wire send path (encode,
# frame and flush of a ref batch) and its receive path must stay at exactly
# 0 allocs/op. Any regression — a scratch buffer that stops being reused, a
# closure that starts escaping — fails the build here rather than showing up
# as GC pressure in production sweeps. On the receive side the column
# decoder (BenchmarkDecodeRefBatch) and the server's whole frame loop into a
# sink (BenchmarkServeRefFrame: read into the connection's buffer, decode,
# address by the resolved refs, append) run at 32 and at 925 records a
# frame, both cases of both gated at 0 (the decoder was one constant <= 4
# per frame while it built a Batch of Records). The
# distribution path (BenchmarkDistributionRead: p95 and std of a 6 h, 10 s
# series, at a 5 m step and whole-window) gathers each bucket's values in the
# raw cursor's pooled scratch for p95 and keeps a running Welford
# accumulator for std, so it allocates only what the answer needs: a sorted
# copy per p95 bucket, the bucket slice, sized once, and the series key. Its
# budgets are 75, 3, 3 and 2 allocs/op, measured when std went one-pass and
# a bucketed read sized its slice once (82, 3, 10 and 2 when std gathered its
# values and the slice grew by doubling; 84, 5, 12 and 4 when a separate raw
# reducer answered them and built the key twice). BenchmarkAnalyzeSweep is
# one full-grid sweep over a centre shaped like the end-to-end benchmark's
# analyze_grid (128 nodes, 1,490 rounds at 60 s, a 12 h window): what one
# /analyze adds to odad's heap. It is gated at 16,500,000 B/op and 20,000
# allocs/op, over the 15.90 MB and 19,474 allocs measured when every heavy
# capability built its working set once, flat and presized (83.5 MB and
# 279,194 allocs before). BenchmarkSegmentReadFrom is one replication pull
# of 1 MiB out of an 8 MiB WAL segment: it is gated at 1.25 × the pull's
# budget in B/op (1,060,760 B measured when a pull read only the records it
# ships; 9,397,874 when every pull read the whole segment). Every gated
# benchmark and case must appear in the output: a renamed or deleted one
# fails the gate instead of passing it vacuously.
bench-allocs:
	@out=$$($(GO) test -run xxx -bench 'BenchmarkStoreCursorSweep$$' -benchmem -benchtime 50x ./internal/timeseries; \
	        $(GO) test -run xxx -bench 'BenchmarkDistributionRead$$' -benchmem -benchtime 200x ./internal/timeseries; \
	        $(GO) test -run xxx -bench 'BenchmarkEncodeRefBatch|BenchmarkDecodeRefBatch|BenchmarkServeRefFrame' -benchmem -benchtime 1000x ./internal/wire; \
	        $(GO) test -run xxx -bench 'BenchmarkAnalyzeSweep$$' -benchmem -benchtime 1x .; \
	        $(GO) test -run xxx -bench 'BenchmarkSegmentReadFrom$$' -benchmem -benchtime 100x ./internal/persist); \
	echo "$$out"; \
	echo "$$out" | awk 'BEGIN { split("p95/5m 75 p95/whole 3 std/5m 3 std/whole 2", b, " "); for (i = 1; i < 8; i += 2) dist[b[i]] = b[i+1] } \
		/^Benchmark/ { name = $$1; sub(/[\/-].*/, "", name); seen[name]++ } \
		/^BenchmarkAnalyzeSweep/ { if ($$(NF-3)+0 > 16500000 || $$(NF-1)+0 > 20000) { printf "FAIL: %s allocates %s B/op and %s allocs/op (budget 16500000 and 20000)\n", $$1, $$(NF-3), $$(NF-1); bad=1 }; next } \
		/^BenchmarkSegmentReadFrom/ { if ($$(NF-3)+0 > 1310720) { printf "FAIL: %s allocates %s B/op per pull (budget 1310720, 1.25 x the 1 MiB pull)\n", $$1, $$(NF-3); bad=1 }; next } \
		/^BenchmarkDistributionRead\// { c = $$1; sub(/^BenchmarkDistributionRead\//, "", c); sub(/-[0-9]+$$/, "", c); got[c] = 1; \
			if (!(c in dist) || $$(NF-1)+0 > dist[c]) { printf "FAIL: %s allocates %s allocs/op (budget %s)\n", $$1, $$(NF-1), dist[c]; bad=1 }; next } \
		/^Benchmark/ { if ($$(NF-1)+0 > 0) { printf "FAIL: %s allocates %s allocs/op (budget 0)\n", $$1, $$(NF-1); bad=1 } } \
		END { n = split("BenchmarkStoreCursorSweep BenchmarkEncodeRefBatch BenchmarkAnalyzeSweep BenchmarkSegmentReadFrom", gated, " "); \
			for (i = 1; i <= n; i++) if (!seen[gated[i]]) { printf "FAIL: %s missing from output\n", gated[i]; bad=1 } \
			n = split("BenchmarkDecodeRefBatch BenchmarkServeRefFrame", cased, " "); \
			for (i = 1; i <= n; i++) if (seen[cased[i]] != 2) { printf "FAIL: %s missing a case (32 and 925 records) from output\n", cased[i]; bad=1 } \
			for (c in dist) if (!got[c]) { printf "FAIL: BenchmarkDistributionRead/%s missing from output\n", c; bad=1 } \
			if (bad) exit 1; print "OK: streaming paths and the wire receive path within 0 allocs/op budget, distribution reads, the grid sweep and a replication pull within their budgets" }'

# Rollup-tier planner gate for the PR 6 long-window workload: the planned
# 30-day/1h-step aggregation must beat the raw scan by >= 50x, and the
# planned single-value reduction must stay at exactly 0 allocs/op (see
# BENCH_PR6.json for recorded numbers). The raw scan is the same query,
# through the same planned entry point, on the same raw chunks restored into
# a store without tiers, where it plans raw (the benchmark asserts the plan).
# One store build (~2.6M appends) and its untiered copy are shared across the
# three benchmarks via sync.Once.
bench-longwindow:
	@out=$$($(GO) test -run xxx -bench 'BenchmarkLongWindowQuery|BenchmarkStorePlannedCursorSweep' -benchmem -benchtime 20x ./internal/timeseries); \
	echo "$$out"; \
	echo "$$out" | awk ' \
		/^BenchmarkLongWindowQueryRaw/ { raw=$$3 } \
		/^BenchmarkLongWindowQueryPlanned/ { planned=$$3 } \
		/^BenchmarkStorePlannedCursorSweep/ { if ($$(NF-1)+0 > 0) { printf "FAIL: planned cursor path allocates %s allocs/op (budget 0)\n", $$(NF-1); bad=1 } } \
		END { \
			if (raw == "" || planned == "" || planned+0 == 0) { print "FAIL: long-window benchmarks missing from output"; exit 1 } \
			ratio = raw / planned; \
			printf "long-window speedup: %.0fx (raw %s ns/op / planned %s ns/op)\n", ratio, raw, planned; \
			if (ratio < 50) { printf "FAIL: speedup %.0fx below 50x floor\n", ratio; bad=1 } \
			if (bad) exit 1; \
			print "OK: planned path >= 50x and 0 allocs/op" }'

# Ingest allocation budget: the ref-addressed append (resolved SeriesRefs,
# no key building / hashing / registry lookups) must stay at exactly
# 0 allocs/op. Runs as part of `make test` so a regression in the hot ingest
# loop fails the build; a missing benchmark fails it too.
bench-ingest:
	@out=$$($(GO) test -run xxx -bench 'BenchmarkIngestRefs' -benchmem -benchtime 2000x ./internal/timeseries); \
	echo "$$out"; \
	echo "$$out" | awk ' \
		/^BenchmarkIngestRefs/ { seen=1; if ($$(NF-1)+0 > 0) { printf "FAIL: ref ingest allocates %s allocs/op (budget 0)\n", $$(NF-1); bad=1 } } \
		END { \
			if (!seen) { print "FAIL: BenchmarkIngestRefs missing from output"; exit 1 } \
			if (bad) exit 1; \
			print "OK: ref ingest at 0 allocs/op" }'

# Recovery allocation budget: replaying the fleet WAL (4096 series, 32-sample
# records, 10 s cadence, rollups 1m,1h — the shape of the end-to-end
# benchmark's largest recovery) may allocate what building the same store by
# direct AppendRefs allocates, plus one decode scratch per segment and one
# for the applier's window: nothing per record, nothing per sample (the
# fleet WAL holds 49,152 records; the 8 on top absorbs the runtime's own
# stray allocations, which land in either count, and the one-shard-per-core
# apply's workers). It runs at -cpu 1 and -cpu 2, one shard and two, and
# gates each. The budget is a count, so it does not depend on how fast this
# box is today; ns/sample is printed for the reader. The same run gates the
# fleet WAL's size: wal_B/sample (segment bytes over samples, also a count)
# must stay at or under 3.86 — 3.748 with the decimal value column, 8.71 with
# raw values, 11.55 with the row-wise record. It gates the replayed store's
# size too: store_B/sample (resident raw and rollup tier chunk bytes over
# samples, a count as well) must stay at or under 5.15 — 5.002 with the
# decimal chunk code, 12.67 when every chunk was Gorilla-coded. The same fleet
# a sample a minute (replay_60s), where every 1m rollup window holds one
# sample, must stay at or under 5.71 store_B/sample — 5.546 since a tier chunk
# holds the records its stream writes (40 one-sample windows, not 15), 6.106
# with 15 a chunk, 15.39 when each window coded its sample five times — and
# at or under 339,956 allocs/op at either -cpu: 339,944 and 339,948 measured,
# plus the same 8 for the runtime's stray allocations; 536,819 with 15
# windows a chunk, a Chunk and its buffer for every 15 samples of a series.
# A missing benchmark fails the gate.
bench-replay:
	@out=$$($(GO) test -run xxx -bench 'BenchmarkWALReplayFleet' -benchmem -benchtime 2x -cpu 1,2 ./internal/persist); \
	echo "$$out"; \
	echo "$$out" | awk ' \
		/^BenchmarkWALReplayFleet\// { \
			name = $$1; cpu = 1; allocs = ""; segs = ""; walb = ""; storeb = ""; \
			if (match(name, /-[0-9]+$$/)) { cpu = substr(name, RSTART + 1); name = substr(name, 1, RSTART - 1) } \
			for (i=2; i<=NF; i++) { if ($$i == "allocs/op") allocs=$$(i-1); if ($$i == "segments") segs=$$(i-1); if ($$i == "wal_B/sample") walb=$$(i-1); if ($$i == "store_B/sample") storeb=$$(i-1) } \
			if (name == "BenchmarkWALReplayFleet/replay") { replay[cpu]=allocs; nsegs[cpu]=segs; wal[cpu]=walb; store[cpu]=storeb } \
			if (name == "BenchmarkWALReplayFleet/replay_60s") { store60[cpu]=storeb; allocs60[cpu]=allocs } \
			if (name == "BenchmarkWALReplayFleet/direct") direct[cpu]=allocs; \
		} \
		END { \
			for (c=1; c<=2; c++) { \
				if (replay[c] == "" || direct[c] == "" || nsegs[c] == "" || wal[c] == "" || store[c] == "" || store60[c] == "" || allocs60[c] == "") { printf "FAIL: BenchmarkWALReplayFleet replay/replay_60s/direct at -cpu %d missing from output\n", c; exit 1 } \
				budget = direct[c] + nsegs[c] + 1 + 8; \
				printf "-cpu %d: replay %d allocs/op, direct build %d, %d segments: budget %d\n", c, replay[c], direct[c], nsegs[c], budget; \
				if (replay[c]+0 > budget) { printf "FAIL: replay at -cpu %d allocates %d allocs/op over its budget\n", c, replay[c] - budget; exit 1 } \
			} \
			print "OK: the decode-and-resolve loop allocates nothing per record or per sample, with one shard or two"; \
			printf "fleet WAL %.3f B/sample: budget 3.86\n", wal[1]; \
			if (wal[1]+0 > 3.86) { print "FAIL: the fleet WAL costs more bytes per sample than its budget"; exit 1 } \
			print "OK: a logged sample costs its value plus the columns it needs"; \
			for (c=1; c<=2; c++) { \
				printf "-cpu %d: replayed store %.3f B/sample: budget 5.15\n", c, store[c]; \
				if (store[c]+0 > 5.15) { print "FAIL: the replayed store costs more bytes per sample than its budget"; exit 1 } \
				printf "-cpu %d: replayed store at 60 s %.3f B/sample: budget 5.71\n", c, store60[c]; \
				if (store60[c]+0 > 5.71) { print "FAIL: the store replayed at a 60 s cadence costs more bytes per sample than its budget"; exit 1 } \
				printf "-cpu %d: replay at 60 s %d allocs/op: budget 339956\n", c, allocs60[c]; \
				if (allocs60[c]+0 > 339956) { printf "FAIL: replay at a 60 s cadence at -cpu %d allocates %d allocs/op over its budget\n", c, allocs60[c] - 339956; exit 1 } \
			} \
			print "OK: a stored sample costs about what it costs in the log"; \
			print "OK: a one-sample rollup window costs about one value, and a chunk holds 40 of them" }'

# Snapshot-load allocation budget, recovery's other half beside bench-replay:
# BenchmarkSnapshotLoadFleet writes a store as a snapshot and loads it back —
# read, checksum, decode, and RestoreStore, which decodes every raw and tier
# chunk, adopts each sealed one in one exact-size copy and re-encodes only
# each series' and tier's last. "fleet" is the store the fleet WAL replays
# to (70 % of its chunks sealed); its allocs/op may not exceed 234,000:
# 233,815 measured since sealed chunks are adopted, 274,774 when every chunk
# was re-encoded, 348,510 before the block decoder. "archive" is a six-hour
# archive of 512 series (93 % sealed); its allocs/op may not exceed 66,000
# (65,746; 87,762 when every chunk was re-encoded). The budgets are counts,
# so they do not depend on how fast this box is today; ns/record (raw
# samples plus tier records) is printed for the reader. A missing or renamed
# benchmark fails the gate.
bench-restore:
	@out=$$($(GO) test -run xxx -bench 'BenchmarkSnapshotLoadFleet$$' -benchmem -benchtime 2x ./internal/persist); \
	echo "$$out"; \
	echo "$$out" | awk ' \
		/^BenchmarkSnapshotLoadFleet\/fleet/ { fleet=$$(NF-1) } \
		/^BenchmarkSnapshotLoadFleet\/archive/ { archive=$$(NF-1) } \
		END { \
			if (fleet == "" || archive == "") { print "FAIL: BenchmarkSnapshotLoadFleet fleet/archive missing from output"; exit 1 } \
			printf "snapshot load %d allocs/op (fleet), budget 234000; %d (archive), budget 66000\n", fleet, archive; \
			if (fleet+0 > 234000) { printf "FAIL: fleet snapshot load allocates %d allocs/op over its budget\n", fleet - 234000; exit 1 } \
			if (archive+0 > 66000) { printf "FAIL: archive snapshot load allocates %d allocs/op over its budget\n", archive - 66000; exit 1 } \
			print "OK: snapshot load within its allocation budgets" }'

# The end-to-end benchmark BENCHMARK.json declares: all four workloads, one
# seed. Everything it builds and writes lands under .bench_build/.
bench-e2e:
	bash bench/run.sh --workload all --seed 1

# Non-test lines in the telemetry stack's packages: the figure ROADMAP aim 2
# tracks ("the same numbers and behaviour from the least code"), then the
# same count over every package under internal/ and cmd/, then the exported
# method counts of the two widest APIs, timeseries.Store and cluster.Router.
LOC_DIRS = internal/timeseries internal/persist internal/wire internal/cluster internal/collector internal/oda internal/binenc internal/node cmd/odad
loc:
	@for d in $(LOC_DIRS); do \
		printf '%6d %s\n' $$(cat $$(ls $$d/*.go | grep -v _test.go) | wc -l) $$d; \
	done; \
	printf '%6d total\n' $$(cat $$(ls $(addsuffix /*.go,$(LOC_DIRS)) | grep -v _test.go) | wc -l); \
	printf '%6d internal/ + cmd/ (all non-test Go)\n' $$(cat $$(find internal cmd -name '*.go' ! -name '*_test.go') | wc -l); \
	printf '%6d timeseries.Store exported methods\n' $$(cat $$(ls internal/timeseries/*.go | grep -v _test.go) | grep -c '^func (s \*Store) [A-Z]'); \
	printf '%6d cluster.Router exported methods\n' $$(cat $$(ls internal/cluster/*.go | grep -v _test.go) | grep -c '^func (r \*Router) [A-Z]')

# Distributed-query cost benchmark: the same scatter-gather ReduceMany
# against a 1-node cluster (local fast-path) and a 3-node cluster over
# in-memory pipes. The spread is the price of distribution — wire round
# trips, not data volume, since only fixed-size partial aggregates cross
# the network (see BENCH_PR8.json for recorded numbers).
bench-cluster:
	$(GO) test -run xxx -bench BenchmarkClusterScatterQuery -benchmem -benchtime 2s ./internal/cluster

# The PR 10 membership benches: the full join handoff (snapshot + WAL tail +
# epoch commit) against a loaded cluster, and the fixed per-node cost of
# adopting a bumped epoch (see BENCH_PR10.json for recorded numbers).
bench-rebalance:
	$(GO) test -run xxx -bench 'BenchmarkJoinHandoff|BenchmarkEpochFlip' -benchmem -benchtime 20x ./internal/cluster

# What concurrency buys, by core count: the lock-contention benches (the
# store — one registry lock plus a lock per series — against the global-lock
# reference), and the grid sweep with its explicit pool against the serial
# default, on CPU-bound capabilities and on blocking stand-ins.
bench-parallel:
	$(GO) test -run xxx -bench 'BenchmarkStoreQueryParallel|BenchmarkGridRunAll|BenchmarkActuatorSweep' -cpu 1,2,4 -benchtime 2s ./
	$(GO) test -run xxx -bench 'BenchmarkStoreMixedParallel' -cpu 1,2,4 -benchtime 2s ./internal/timeseries/
