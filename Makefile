GO ?= go

.PHONY: build test test-short test-race perf-gate fuzz-seed vet loc stream-demo ops-smoke

build:
	$(GO) build ./...

# Default test flow runs vet first: cheap static checks before the suite.
test: vet
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race coverage for the concurrent surfaces: the analyzer query plane
# (memoized reconstruction caches, made once by racing first decodes, first
# queries parsing curves off one payload at decode budgets 1, 4 and 0, the
# resident count against a scan of the caches, the append-only routing
# index read beside its one writer, concurrent replay, one decoded report queried
# through a collector and an analyzer at once), the telemetry plane (atomic
# counters/histograms, registry, tracer), the netsim event engine (timing
# wheel vs the tests' heap oracles), and the zero-copy mirror datapath (mbuf
# pool free lists/refcounts, pcapio block-buffered reader/writer, in-place
# packet views), the collector window + event hub, and the ops API serving
# queries against live ingest.
test-race:
	$(GO) test -race ./internal/report -run 'TestQueryable|TestDecodeBudget|TestRoutedSetExtendMatchesCloneAdd'
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
# room to grow into. Raising it needs a reason in the PR. The two long
# documents have a line budget each: a PR's write-up is a row of
# EXPERIMENTS.md's per-PR table, not a section.
LOC_CEILING = 15503
LOC_SLACK = 25
DESIGN_MAX = 868
EXPERIMENTS_MAX = 450
loc:
	@n=$$(find . -name '*.go' -not -name '*_test.go' -not -path './bench/*' | xargs wc -l | tail -1 | awk '{print $$1}'); \
	echo "$$n non-test Go lines outside bench/ (ceiling $(LOC_CEILING))"; \
	test $$n -le $(LOC_CEILING) || { echo "over the ceiling"; exit 1; }; \
	test $$(($(LOC_CEILING) - n)) -le $(LOC_SLACK) || { echo "ceiling more than $(LOC_SLACK) above the count: lower LOC_CEILING"; exit 1; }
	@test $$(wc -l < DESIGN.md) -le $(DESIGN_MAX) || { echo "DESIGN.md is over $(DESIGN_MAX) lines"; exit 1; }
	@test $$(wc -l < EXPERIMENTS.md) -le $(EXPERIMENTS_MAX) || { echo "EXPERIMENTS.md is over $(EXPERIMENTS_MAX) lines"; exit 1; }

# The microbenchmark suites, declared once. `make bench-<suite>` runs a
# suite's passes at their full settings and rewrites BENCH_<suite>.json (via
# benchjson), the committed baseline: refresh it here after a deliberate
# perf change. `make perf-gate` re-runs every gated pass at its shorter
# settings and compares against the same file. Pinned -benchtime and -count
# keep runs comparable across commits; raw output goes under out/.
#
#   ingest  the packet path: the seeded key hash, the sketch update paths,
#           the host packet path at the packet→answer benchmark's working
#           set (16 time-interleaved StreamHostMonitors sealing as epochs
#           roll), one epoch boundary by itself — seal, encode, ship, reset
#           at the stream-mice occupancy — and an idle epoch's header-only
#           report. The gate leaves out the sub-nanosecond telemetry no-ops.
#           The TelemetryNoopSpan row was re-baselined alone when the
#           disabled span came to inline (10.6 ns before).
#   query   the ops API's sustained QPS over real HTTP against a populated
#           window, and the fleet-scale fixture (2,000 reports, >1M flow
#           keys) through the routing index, stacked and laid out in time,
#           event replay and a mixed read/write run; p50-ns/p99-ns/qps ride in
#           benchjson's metrics map. The over-HTTP pass swings far more run
#           to run than the in-process ones, so it has a wider threshold.
#   sim     event scheduling on the timing wheel, the DCQCN rearm path, a
#           dumbbell simulation, and the serial-vs-sharded FabricSim matrix
#           (fat-tree k=4/k=8 at 1/2/4 shards).
#           Tracked, not gated.
#   mirror  pooled buffers, batched pcap read/write, in-place mirror encode
#           and decode, the batch ingest, the switch monitor's
#           match→encode→emit, and the collector's online path with the
#           automatic Poll and with -follow's Poll after every mirror.
#   admit   the collector side of the report datapath, at the fleet geometry
#           (3×1024 basic) and the Table 1 full sketch: DecodeBytes (the
#           one validating walk, which builds the index, and the payload
#           copy) and AppendEncode (AppendSealed on a sealed sketch's curves)
#           on one report, what NewQueryable derives from the index, a whole
#           epoch through Collector.AddEncoded at 16, 125 and 1,000 hosts
#           (B/report and allocs/report ride in the metrics map), and the
#           parse + reconstruction admit left to a curve's first query
#           (QueryColdCurve). Its B/op is gated too: allocation repeats
#           exactly, the clock does not. The AdmitEpoch/*, NewQueryable and
#           QueryColdCurve/* rows were re-baselined when a report's curve
#           caches moved from NewQueryable to its first cold decode and a
#           curve came to be reconstructed to its len only: admits allocate
#           less, and a cold query pays for the caches but expands fewer
#           samples. The Decode/* and AppendEncode/* rows kept theirs.
PERF_GATE_THRESHOLD ?= 25
PERF_GATE_API_THRESHOLD ?= 60

# A suite is a list of passes. A pass p is: p_BENCH, the go test -bench
# regex; p_PKGS; p_RUN, the flags of bench-<suite>; p_GATE, the flags of
# perf-gate (none: not gated); p_THRESHOLD, the allowed ns/op regression in
# percent; p_BYTES, the allowed B/op regression in percent (none: B/op is
# not gated); and, where the gate covers only part of the pass or shares its
# baseline file with another pass, p_GATE_BENCH, the names it runs and reads.
SUITES = mirror query admit ingest sim
mirror_PASSES = mirror
query_PASSES = query-api query-scale
admit_PASSES = admit
ingest_PASSES = ingest
sim_PASSES = sim-engine sim-fabric

mirror_BENCH = MbufPool|PcapRead|PcapWrite|DecodeMirrorInto|AppendMirror|MirrorReadDecode|MirrorIngestE2E|CollectorMirrorIngest|CollectorFollowPoll|SwitchMonitorOnCEPacket
mirror_PKGS = ./internal/mbuf ./internal/pcapio ./internal/packet ./internal/analyzer ./internal/collect ./internal/core
mirror_RUN = -benchtime 2s -count 5
mirror_GATE = -benchtime 1s -count 3
mirror_THRESHOLD = $(PERF_GATE_THRESHOLD)

query-api_BENCH = QueryFlowAPI|ReplayAPI|StatusAPI
query-api_PKGS = ./internal/opsapi
query-api_RUN = -benchtime 2s -count 5
query-api_GATE = -benchtime 2s -count 3
query-api_GATE_BENCH = $(query-api_BENCH)
query-api_THRESHOLD = $(PERF_GATE_API_THRESHOLD)

query-scale_BENCH = QueryScale
query-scale_PKGS = ./internal/collect
query-scale_RUN = -benchtime 1s -count 3
query-scale_GATE = -benchtime 1s -count 2
query-scale_GATE_BENCH = $(query-scale_BENCH)
query-scale_THRESHOLD = $(PERF_GATE_THRESHOLD)

admit_BENCH = ^Benchmark(Decode|AppendEncode|NewQueryable|AdmitEpoch|QueryColdCurve)$$
admit_PKGS = ./internal/report ./internal/collect
admit_RUN = -benchmem -benchtime 1s -count 5
admit_GATE = -benchmem -benchtime 1s -count 3
admit_THRESHOLD = $(PERF_GATE_THRESHOLD)
admit_BYTES = 2

ingest_BENCH = KeyHash|BasicUpdate|FullUpdate|StreamHostMonitorOnPacket|SealAndShip|IdleEpoch|TelemetryNoop
ingest_PKGS = ./internal/flowkey ./internal/wavesketch ./internal/core ./internal/telemetry
ingest_RUN = -benchtime 2s -count 5
ingest_GATE = -benchtime 1s -count 3
ingest_GATE_BENCH = KeyHash|BasicUpdate|FullUpdate|StreamHostMonitorOnPacket|SealAndShip|IdleEpoch
ingest_THRESHOLD = $(PERF_GATE_THRESHOLD)

sim-engine_BENCH = EngineSchedule|EngineEventLoopTyped|EngineDCQCNTimerRearm|EngineArmTimers|DumbbellSim
sim-engine_PKGS = ./internal/netsim
sim-engine_RUN = -benchtime 1s -count 5

sim-fabric_BENCH = FabricSim
sim-fabric_PKGS = ./internal/netsim
sim-fabric_RUN = -benchtime 3x -count 3

define nl


endef
# gobench,<pass>,<regex>,<flags>
gobench = $(GO) test -run XXX -bench '$(2)' $(3) $($(1)_PKGS)

bench-%:
	@test -n "$($*_PASSES)" || { echo "no suite '$*': one of $(SUITES)"; exit 1; }
	@mkdir -p out && rm -f out/$@.txt
	$(foreach p,$($*_PASSES),$(call gobench,$(p),$($(p)_BENCH),$($(p)_RUN)) | tee -a out/$@.txt$(nl))
	$(GO) run ./cmd/benchjson -o BENCH_$*.json out/$@.txt

# CI performance gate: fail if any benchmark a gated pass reads from its
# committed baseline regressed in ns/op (or, where the pass sets it, B/op) by
# more than the pass's threshold or went missing. Every leg runs whatever the others found — one that fails or
# cannot run leaves a FAIL row — and the failing rows are printed together
# at the end.
# gateleg,<suite>,<pass>
define gateleg
$(call gobench,$(2),$(or $($(2)_GATE_BENCH),$($(2)_BENCH)),$($(2)_GATE)) | tee out/gate-$(2).txt
$(GO) run ./cmd/benchjson -o out/gate-$(2).json out/gate-$(2).txt
{ $(GO) run ./cmd/benchgate -old BENCH_$(1).json -new out/gate-$(2).json $(if $($(2)_GATE_BENCH),-bench '$($(2)_GATE_BENCH)') -threshold $($(2)_THRESHOLD) $(if $($(2)_BYTES),-bytes $($(2)_BYTES)) || echo "FAIL  benchgate $(2)"; } | tee -a out/gate-rows.txt

endef
perf-gate:
	@mkdir -p out && rm -f out/gate-rows.txt
	$(foreach s,$(SUITES),$(foreach p,$($(s)_PASSES),$(if $($(p)_GATE),$(call gateleg,$(s),$(p)))))
	@if grep '^FAIL' out/gate-rows.txt; then echo "perf-gate: the rows above failed"; exit 1; fi

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
