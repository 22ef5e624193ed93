// Benchmarks regenerating every table and figure of the paper's
// evaluation (§7). Each benchmark prints its table on the first iteration
// (go test -bench=. -v shows them; cmd/umon-bench renders them directly).
//
// The six fat-tree simulations are cached across benchmarks, mirroring how
// the paper reuses its NS-3 traces. Set UMON_BENCH_MS to scale the trace
// duration (default 20, the paper's 20 ms).
package umon_test

import (
	"io"
	"os"
	"strconv"
	"sync"
	"testing"

	"umon"
	"umon/internal/experiments"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

var (
	benchCacheOnce sync.Once
	benchCache     *experiments.Cache
)

func cache() *experiments.Cache {
	benchCacheOnce.Do(func() {
		ms := int64(20)
		if v := os.Getenv("UMON_BENCH_MS"); v != "" {
			if p, err := strconv.ParseInt(v, 10, 64); err == nil && p > 0 {
				ms = p
			}
		}
		benchCache = experiments.NewCache(experiments.Options{DurationNs: ms * 1_000_000, Seed: 42})
		// Build the six shared simulations concurrently up front; every
		// benchmark then hits a warm cache.
		if err := benchCache.Prewarm(experiments.StandardKeys()); err != nil {
			panic(err)
		}
	})
	return benchCache
}

// runExperiment executes one experiment per iteration, printing its table
// once.
func runExperiment(b *testing.B, fn experiments.ExperimentFunc) {
	b.Helper()
	printed := false
	for i := 0; i < b.N; i++ {
		tab, err := fn(cache())
		if err != nil {
			b.Fatal(err)
		}
		if !printed {
			printed = true
			out := io.Writer(os.Stdout)
			if !testing.Verbose() {
				out = io.Discard
			}
			tab.Fprint(out)
		}
	}
}

func BenchmarkFig01Granularity(b *testing.B) { runExperiment(b, experiments.Fig01Granularity) }
func BenchmarkFig03CounterIncrease(b *testing.B) {
	runExperiment(b, experiments.Fig03CounterIncrease)
}
func BenchmarkFig05WaveletExample(b *testing.B) { runExperiment(b, experiments.Fig05WaveletExample) }
func BenchmarkFig09FlowBehaviors(b *testing.B)  { runExperiment(b, experiments.Fig09FlowBehaviors) }
func BenchmarkFig10EventReplay(b *testing.B)    { runExperiment(b, experiments.Fig10EventReplay) }
func BenchmarkFig11AccuracyHadoop(b *testing.B) {
	runExperiment(b, experiments.Fig11AccuracyHadoop15)
}
func BenchmarkFig12AccuracyWebSearch(b *testing.B) {
	runExperiment(b, experiments.Fig12AccuracyWebSearch25)
}
func BenchmarkFig13Reconstruction(b *testing.B) { runExperiment(b, experiments.Fig13Reconstruction) }
func BenchmarkFig14EventRecall(b *testing.B)    { runExperiment(b, experiments.Fig14EventRecall) }
func BenchmarkFig15MirrorBandwidth(b *testing.B) {
	runExperiment(b, experiments.Fig15MirrorBandwidth)
}
func BenchmarkFig16WorkloadInfo(b *testing.B) { runExperiment(b, experiments.Fig16WorkloadInfo) }
func BenchmarkFig17AccuracyByFlowSizeWS(b *testing.B) {
	runExperiment(b, experiments.Fig17AccuracyByFlowSizeWS)
}
func BenchmarkFig18AccuracyByFlowSizeHD(b *testing.B) {
	runExperiment(b, experiments.Fig18AccuracyByFlowSizeHD)
}
func BenchmarkTable1HardwareResources(b *testing.B) {
	runExperiment(b, experiments.Table1HardwareResources)
}
func BenchmarkTable2Workloads(b *testing.B)    { runExperiment(b, experiments.Table2Workloads) }
func BenchmarkSec71HostBandwidth(b *testing.B) { runExperiment(b, experiments.Sec71HostBandwidth) }

// BenchmarkUpdateThroughput measures the WaveSketch per-packet update cost
// (§4.2: amortized O(1 + ε(L + log K))).
func BenchmarkUpdateThroughput(b *testing.B) {
	s, err := wavesketch.NewBasic(wavesketch.Default(64))
	if err != nil {
		b.Fatal(err)
	}
	keys := make([]flowkey.Key, 128)
	for i := range keys {
		keys[i] = flowkey.Key{
			SrcIP: 0x0a000001 + uint32(i), DstIP: 0x0a000064,
			SrcPort: uint16(i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(keys[i&127], int64(i>>7), 1058)
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}

// BenchmarkQueryThroughput measures reconstruction-query cost.
func BenchmarkQueryThroughput(b *testing.B) {
	s, _ := wavesketch.NewBasic(wavesketch.Default(64))
	keys := make([]flowkey.Key, 32)
	for i := range keys {
		keys[i] = flowkey.Key{SrcIP: uint32(i + 1), DstIP: 99, SrcPort: uint16(i), DstPort: 4791, Proto: 17}
		for w := int64(0); w < 512; w++ {
			s.Update(keys[i], w, int64(w%1500+1))
		}
	}
	s.Seal()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got := s.QueryRange(keys[i&31], 0, 512)
		if len(got) != 512 {
			b.Fatal("bad query")
		}
	}
}

// BenchmarkHostMonitorPipeline measures the full host-side path: sketch
// update plus periodic report encoding.
func BenchmarkHostMonitorPipeline(b *testing.B) {
	m, err := umon.NewHostMonitor(0, umon.DefaultHostMonitor(), func(int, []byte) {})
	if err != nil {
		b.Fatal(err)
	}
	f := flowkey.Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 9, DstPort: 4791, Proto: 17}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.OnPacket(f, int64(i)*100, 1058); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWaveletStreamPush measures the streaming transform's per-window
// cost through the top-K sink, including the heap fill phase (Reset every
// 512 windows) where container/heap used to box one interface per push.
func BenchmarkWaveletStreamPush(b *testing.B) {
	s := wavelet.NewStream(8, 64)
	sink := wavelet.NewTopKSink(32)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := i & 511
		if w == 0 && i > 0 {
			s.Finish(sink)
			s.Reset()
			sink.Reset()
		}
		s.Push(w, int64(w%1500+1), sink)
	}
}

// BenchmarkGroundTruthUpdate measures exact-series accumulation under a
// bursty key pattern (several consecutive updates per flow, as host egress
// streams produce).
func BenchmarkGroundTruthUpdate(b *testing.B) {
	g := measure.NewGroundTruth()
	keys := make([]flowkey.Key, 64)
	for i := range keys {
		keys[i] = flowkey.Key{
			SrcIP: 0x0a000001 + uint32(i), DstIP: 0x0a000064,
			SrcPort: uint16(i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Update(keys[(i>>3)&63], int64(i>>9), 1058)
	}
}

// BenchmarkEngineEventLoop measures discrete-event scheduling churn: one
// shared closure scheduled and drained in batches, isolating the event
// queue's own cost.
func BenchmarkEngineEventLoop(b *testing.B) {
	e := netsim.NewEngine()
	var sink int
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	var now int64
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			now++
			e.At(now, fn)
		}
		e.Run(now)
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.
func BenchmarkAblationSelection(b *testing.B) { runExperiment(b, experiments.AblationSelection) }
func BenchmarkAblationDepth(b *testing.B)     { runExperiment(b, experiments.AblationDepth) }
func BenchmarkAblationRows(b *testing.B)      { runExperiment(b, experiments.AblationRows) }
func BenchmarkAblationHeavy(b *testing.B)     { runExperiment(b, experiments.AblationHeavy) }

// Extension benchmarks (µEvent types beyond the paper's ECN evaluation).
func BenchmarkExtPFCStorms(b *testing.B)     { runExperiment(b, experiments.ExtPFCStorms) }
func BenchmarkExtLossForensics(b *testing.B) { runExperiment(b, experiments.ExtLossForensics) }

// BenchmarkUpdateThroughputAggEvict measures the §8 Agg-Evict software
// acceleration: per-(flow, window) coalescing in front of the sketch. The
// stream has ~12 packets per flow-window, typical of 100 Gbps flows at
// 8.192 µs windows.
func BenchmarkUpdateThroughputAggEvict(b *testing.B) {
	inner, err := wavesketch.NewBasic(wavesketch.Default(64))
	if err != nil {
		b.Fatal(err)
	}
	s := wavesketch.NewAggregator(inner, 256)
	keys := make([]flowkey.Key, 16)
	for i := range keys {
		keys[i] = flowkey.Key{
			SrcIP: 0x0a000001 + uint32(i), DstIP: 0x0a000064,
			SrcPort: uint16(i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 16 flows × 12 packets per window before the window advances.
		s.Update(keys[i&15], int64(i>>8), 1058)
	}
	b.StopTimer()
	b.ReportMetric(s.Reduction(), "pkts/push")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Mupdates/s")
}
func BenchmarkExtDedupBatch(b *testing.B) { runExperiment(b, experiments.ExtDedupBatch) }
func BenchmarkExtDutyCycle(b *testing.B)  { runExperiment(b, experiments.ExtDutyCycle) }
func BenchmarkExtImbalance(b *testing.B)  { runExperiment(b, experiments.ExtImbalance) }
