GO ?= go

.PHONY: build test test-short test-race bench bench-accuracy bench-micro bench-ingest bench-query bench-sim bench-mirror bench-admit perf-gate fuzz-seed vet loc stream-demo ops-smoke

build:
	$(GO) build ./...

# Default test flow runs vet first: cheap static checks before the suite.
test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race coverage for the concurrent surfaces: the parallel evaluation
# harness, the singleflight sim cache, the analyzer query plane
# (memoized reconstruction caches, routing index, parallel replay), the
# telemetry plane (atomic counters/histograms, registry, tracer), the
# netsim event engine (timing wheel vs heap-oracle determinism), and the
# zero-copy mirror datapath (mbuf pool free lists/refcounts, pcapio
# block-buffered reader/writer, in-place packet views), the collector
# window + event hub, and the ops API serving queries against live ingest.
test-race:
	$(GO) test -race ./internal/parallel
	$(GO) test -race ./internal/experiments -run TestParallel
	$(GO) test -race ./internal/report -run 'TestQueryable|TestDecodeBudget'
	$(GO) test -race ./internal/analyzer -run 'TestAnalyzerConcurrent|TestDetectEventsIncremental|TestPopClosed|TestRecycledClusterer'
	$(GO) test -race ./internal/telemetry
	$(GO) test -race ./internal/netsim -run 'TestEngineWheelMatchesHeapOracle|TestSimulationWheelMatchesHeapOracle|TestWheel|TestTimerArm'
	$(GO) test -race ./internal/netsim -run 'TestParallelMatchesSerial|TestLockstepMatchesGoroutines|TestShardedWheelMatchesHeapOracle|TestShardedEngineStormMatchesOracle'
	$(GO) test -race ./internal/mbuf
	$(GO) test -race ./internal/pcapio
	$(GO) test -race ./internal/packet
	$(GO) test -race ./internal/report -run 'TestStream|FuzzReportStream'
	$(GO) test -race ./internal/core -run 'TestStream|TestWire'
	$(GO) test -race -short ./internal/collect
	$(GO) test -race ./internal/opsapi
	$(GO) test -race ./cmd/umon-collect
	$(GO) test -race ./cmd/umonctl

# Replay the fuzz seed corpora (the f.Add inputs) as plain regression
# tests: go test runs every seed through the fuzz targets without the
# mutation engine. CI runs this; `go test -fuzz` explores further locally.
fuzz-seed:
	$(GO) test -run 'Fuzz' ./internal/packet ./internal/pcapio ./internal/report -count 1

vet:
	$(GO) vet ./...

# The size ratchet: non-test Go outside bench/ may shrink, not grow past
# LOC_CEILING, and the ceiling may sit no more than LOC_SLACK lines above
# the count, so a PR that deletes code lowers it and leaves the next one no
# room to grow into. Raising it needs a reason in the PR.
LOC_CEILING = 18788
LOC_SLACK = 25
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1 | awk '{print $$1}'); \
	echo "$$n non-test Go lines outside bench/ (ceiling $(LOC_CEILING))"; \
	test $$n -le $(LOC_CEILING) || { echo "over the ceiling"; exit 1; }; \
	test $$(($(LOC_CEILING) - n)) -le $(LOC_SLACK) || { echo "ceiling more than $(LOC_SLACK) above the count: lower LOC_CEILING"; exit 1; }

# Full evaluation suite (paper-scale 20 ms traces). UMON_WORKERS bounds the
# worker pool; UMON_BENCH_MS scales the traces.
bench:
	$(GO) test -bench . -benchtime 1x

bench-accuracy:
	$(GO) test -bench 'Fig1[12]' -benchtime 1x

bench-micro:
	$(GO) test -bench 'WaveletStreamPush|GroundTruthUpdate|EngineEventLoop' -benchtime 2s

# Ingest datapath throughput (ns/op, Mpps, allocs): the seeded key hash,
# the sketch update paths, the host packet path at the packet→answer
# benchmark's working set (16 time-interleaved StreamHostMonitors, sealing
# as epochs roll), and one epoch boundary by itself — seal, encode, ship
# and reset at the stream-mice occupancy (wire-B/op is the report), and the
# header-only report of an idle epoch. Pinned -benchtime and -count so runs are comparable
# across commits. Writes BENCH_ingest.json (via benchjson), the committed
# perf-gate baseline for the packet path; refresh it here after a
# deliberate perf change.
INGEST_BENCH = KeyHash|BasicUpdate|FullUpdate|BasicUpdateBatch|StreamHostMonitorOnPacket|SealAndShip|IdleEpoch|TelemetryNoop
INGEST_PKGS = ./internal/flowkey ./internal/wavesketch ./internal/core ./internal/telemetry
bench-ingest:
	$(GO) test -run XXX -bench '$(INGEST_BENCH)' -benchtime 2s -count 5 \
		$(INGEST_PKGS) | tee bench-ingest.txt
	$(GO) run ./cmd/benchjson -o BENCH_ingest.json bench-ingest.txt

# Query-plane latency and throughput, one file: the ops API's sustained QPS
# (concurrent /api/query/flow, /api/replay and /api/status over real HTTP
# against a populated multi-epoch window — the remote query path a
# dashboard or umonctl drives while ingest runs) and the fleet-scale
# fixture (2,000 (host,epoch) reports holding >1M distinct flow keys,
# queried concurrently through the routing index — QueryScaleFlow — and
# the linear-scan baseline — QueryScaleFlowScan — plus event replay and a
# mixed read/write run with ingest republishing snapshots mid-query; each
# reports p50-ns/p99-ns/qps via b.ReportMetric, which benchjson folds into
# a metrics map). Writes BENCH_query.json (via benchjson), the committed
# perf-gate baseline; refresh it here after a deliberate perf change.
QUERY_API_BENCH = QueryFlowAPI|ReplayAPI|StatusAPI
QUERY_SCALE_BENCH = QueryScale
bench-query:
	$(GO) test -run XXX -bench '$(QUERY_API_BENCH)' -benchtime 2s -count 5 \
		./internal/opsapi | tee bench-query.txt
	$(GO) test -run XXX -bench '$(QUERY_SCALE_BENCH)' -benchtime 1s -count 3 \
		./internal/collect | tee -a bench-query.txt
	$(GO) run ./cmd/benchjson -o BENCH_query.json bench-query.txt

# Event-engine scheduling latency (ns/op, allocs): timing wheel vs the
# in-tree heap oracle at several pending-event counts, the typed DCQCN
# rearm path, and a full dumbbell simulation. The FabricSim pass is the
# serial-vs-sharded matrix (fat-tree k=4/k=8 at 1/2/4 shards);
# BENCH_sim.json aggregates everything for CI tracking.
SIM_BENCH = EngineSchedule|EngineEventLoopTyped|EngineDCQCNTimerRearm|EngineArmTimers|DumbbellSim
bench-sim:
	$(GO) test -run XXX -bench '$(SIM_BENCH)' -benchtime 1s -count 5 \
		./internal/netsim | tee bench-sim.txt
	$(GO) test -run XXX -bench FabricSim -benchtime 3x -count 3 \
		./internal/netsim | tee -a bench-sim.txt
	$(GO) run ./cmd/benchjson -o BENCH_sim.json bench-sim.txt

# Mirror-datapath throughput (ns/op, MB/s, allocs): pooled buffer cycling,
# batched pcap read/write, in-place mirror encode and decode, the batch
# read→decode→cluster ingest, the switch monitor's match→encode→emit, and
# the collector's online path (AddMirrorPacket with the automatic Poll, and
# with the Poll after every mirror that -follow pays on a trickling feed). Writes BENCH_mirror.json (via
# benchjson), the committed perf-gate baseline for the mirror path.
MIRROR_BENCH = MbufPool|PcapRead|PcapWrite|DecodeMirrorInto|AppendMirror|MirrorReadDecode|MirrorIngestE2E|CollectorMirrorIngest|CollectorFollowPoll|SwitchMonitorOnCEPacket
MIRROR_PKGS = ./internal/mbuf ./internal/pcapio ./internal/packet ./internal/analyzer ./internal/collect ./internal/core
bench-mirror:
	$(GO) test -run XXX -bench '$(MIRROR_BENCH)' -benchtime 2s -count 5 \
		$(MIRROR_PKGS) | tee bench-mirror.txt
	$(GO) run ./cmd/benchjson -o BENCH_mirror.json bench-mirror.txt

# Report datapath on the collector side (ns/op, MB/s, allocs): DecodeBytes
# and AppendEncode on one report in the wire version hosts write, DecodeV1
# on the same report in the version they wrote before (the legacy path stays
# gated), NewQueryable's index build, and a whole 125-host epoch through
# Collector.AddEncoded, each at the fleet geometry (3×1024 basic) and the
# Table 1 full sketch. Writes BENCH_admit.json (via
# benchjson), the committed perf-gate baseline for seal/encode and admit;
# refresh it here after a deliberate perf change.
ADMIT_BENCH = ^Benchmark(Decode|DecodeV1|AppendEncode|NewQueryable|AdmitEpoch)$$
bench-admit:
	$(GO) test -run XXX -bench '$(ADMIT_BENCH)' -benchmem -benchtime 1s -count 5 \
		./internal/report ./internal/collect | tee bench-admit.txt
	$(GO) run ./cmd/benchjson -o BENCH_admit.json bench-admit.txt

# CI performance gate: re-run the mirror-datapath, ops-API, fleet-scale
# query, report-admit and packet-path benchmarks (shorter settings than
# their bench-* targets — the 25% threshold absorbs the extra noise),
# convert to benchjson, and fail if any benchmark named in the committed
# BENCH_mirror.json / BENCH_query.json / BENCH_admit.json /
# BENCH_ingest.json baselines regressed in ns/op by more than
# PERF_GATE_THRESHOLD percent or went missing. Every leg runs whatever the
# others found; the failing rows are printed together at the end, and the
# target fails if there are any. Refresh the baselines with
# `make bench-mirror`, `make bench-query`, `make bench-admit` and
# `make bench-ingest` after a deliberate perf change. The over-HTTP ops-API
# benchmarks ride the full loopback TCP stack and swing far more run-to-run
# than the in-process ones, so they get their own wider threshold. Of the
# ingest set the gate leaves out the telemetry no-ops, which are
# sub-nanosecond.
PERF_GATE_THRESHOLD ?= 25
PERF_GATE_API_THRESHOLD ?= 60
INGEST_GATE_BENCH = KeyHash|BasicUpdate|FullUpdate|StreamHostMonitorOnPacket|SealAndShip|IdleEpoch
# gate runs one benchgate leg and keeps its rows; a leg that fails (or
# cannot run) leaves a FAIL row and does not stop the legs after it.
gate = { $(GO) run ./cmd/benchgate $(1) || echo "FAIL  benchgate $(1)"; } | tee -a bench-gate-rows.txt
perf-gate:
	@rm -f bench-gate-rows.txt
	$(GO) test -run XXX -bench '$(MIRROR_BENCH)' -benchtime 1s -count 3 \
		$(MIRROR_PKGS) | tee bench-gate.txt
	$(GO) run ./cmd/benchjson -o bench-gate.json bench-gate.txt
	$(call gate,-old BENCH_mirror.json -new bench-gate.json -threshold $(PERF_GATE_THRESHOLD))
	$(GO) test -run XXX -bench '$(QUERY_API_BENCH)' -benchtime 2s -count 3 \
		./internal/opsapi | tee bench-query-gate.txt
	$(GO) test -run XXX -bench '$(QUERY_SCALE_BENCH)' -benchtime 1s -count 2 \
		./internal/collect | tee -a bench-query-gate.txt
	$(GO) run ./cmd/benchjson -o bench-query-gate.json bench-query-gate.txt
	$(call gate,-old BENCH_query.json -new bench-query-gate.json -bench 'API$$' -threshold $(PERF_GATE_API_THRESHOLD))
	$(call gate,-old BENCH_query.json -new bench-query-gate.json -bench QueryScale -threshold $(PERF_GATE_THRESHOLD))
	$(GO) test -run XXX -bench '$(ADMIT_BENCH)' -benchmem -benchtime 1s -count 3 \
		./internal/report ./internal/collect | tee bench-admit-gate.txt
	$(GO) run ./cmd/benchjson -o bench-admit-gate.json bench-admit-gate.txt
	$(call gate,-old BENCH_admit.json -new bench-admit-gate.json -threshold $(PERF_GATE_THRESHOLD))
	$(GO) test -run XXX -bench '$(INGEST_GATE_BENCH)' -benchtime 1s -count 3 \
		$(INGEST_PKGS) | tee bench-ingest-gate.txt
	$(GO) run ./cmd/benchjson -o bench-ingest-gate.json bench-ingest-gate.txt
	$(call gate,-old BENCH_ingest.json -new bench-ingest-gate.json -bench '$(INGEST_GATE_BENCH)' -threshold $(PERF_GATE_THRESHOLD))
	@if grep '^FAIL' bench-gate-rows.txt; then echo "perf-gate: the rows above failed"; exit 1; fi

# End-to-end streaming demo: simulate an incast on the dumbbell while the
# hosts seal epoch-rotated reports into one framed stream, then run the
# collector daemon over the stream + mirror feed exactly as a deployment
# would (bounded window, online detection, telemetry summary).
stream-demo:
	$(GO) run ./cmd/umon-sim -workload hadoop -ms 20 -epoch-ms 2 \
		-sample-bits 1 -out out/stream-demo
	$(GO) run ./cmd/umon-collect -reports out/stream-demo/reports.umstream \
		-mirrors out/stream-demo/mirrors.pcap -window 8 -epoch-ms 2 -telemetry-dump

# End-to-end ops-plane smoke: generate a streamed run, start umon-collect
# with the introspection server, drive it with umonctl (healthz readiness
# poll, live event follow), SIGTERM the daemon, and assert the followed
# stream, the JSONL event log, and the -summary-json drain summary all
# agree on the event count. CI runs this.
ops-smoke:
	./scripts/ops-smoke.sh
