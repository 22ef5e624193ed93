package wavesketch

import (
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/telemetry"
)

// benchKeys mirrors the update mix of the original ingest benchmarks:
// 64 flows round-robined with the window advancing every full cycle.
func benchKeys(n int) []flowkey.Key {
	keys := make([]flowkey.Key, n)
	for i := range keys {
		keys[i] = key(i)
	}
	return keys
}

// reportMpps converts ns/op into millions of packets per second so the
// before→after throughput claim reads directly off the benchmark output.
func reportMpps(b *testing.B, packets int) {
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds()/1e6, "Mpps")
}

func BenchmarkBasicUpdate(b *testing.B) {
	s, _ := NewBasic(Default(64))
	keys := benchKeys(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(keys[i%len(keys)], int64(i/len(keys)), 1500)
	}
	reportMpps(b, b.N)
}

func BenchmarkFullUpdate(b *testing.B) {
	s, _ := NewFull(DefaultFull())
	keys := benchKeys(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(keys[i%len(keys)], int64(i/len(keys)), 1500)
	}
	reportMpps(b, b.N)
}

// benchBatch pre-builds one reusable batch with the same key/window mix
// as the per-packet benchmarks.
func benchBatch(size int) []measure.Sample {
	keys := benchKeys(64)
	batch := make([]measure.Sample, size)
	for i := range batch {
		batch[i] = measure.Sample{Key: keys[i%len(keys)], Window: int64(i / len(keys)), Bytes: 1500}
	}
	return batch
}

func BenchmarkBasicUpdateBatch(b *testing.B) {
	s, _ := NewBasic(Default(64))
	batch := benchBatch(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.UpdateBatch(batch)
	}
	reportMpps(b, b.N*len(batch))
}

// BenchmarkShardedIngest drives the concurrent front-end end to end:
// one producer goroutine pushing a pre-built trace through the rings into
// 4 shard workers, sealed per iteration so every sample is fully absorbed
// before the clock stops. On a single-core runner this measures the
// ring+batch overhead ceiling rather than parallel speedup; Mpps is
// reported either way.
func BenchmarkShardedIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(map[int]string{1: "shards=1", 4: "shards=4"}[shards], func(b *testing.B) {
			trace := benchBatch(1 << 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := DefaultSharded(shards, Default(64))
				cfg.Producers = 1
				g, err := NewSharded(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				p := g.Producer(0)
				p.UpdateBatch(trace)
				p.Close()
				g.Seal()
				if g.Updates() != int64(len(trace)) {
					b.Fatalf("lost samples: %d of %d", g.Updates(), len(trace))
				}
			}
			reportMpps(b, b.N*len(trace))
		})
	}
}

// BenchmarkShardedIngestTelemetry is the enabled-telemetry counterpart of
// BenchmarkShardedIngest (shards=4): same workload with a live IngestStats
// attached, so the instrumentation's cost on the real datapath is the delta
// between the two.
func BenchmarkShardedIngestTelemetry(b *testing.B) {
	trace := benchBatch(1 << 16)
	reg := telemetry.NewRegistry()
	stats := NewIngestStats(reg, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cfg := DefaultSharded(4, Default(64))
		cfg.Producers = 1
		cfg.Stats = stats
		g, err := NewSharded(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		p := g.Producer(0)
		p.UpdateBatch(trace)
		p.Close()
		g.Seal()
		if g.Updates() != int64(len(trace)) {
			b.Fatalf("lost samples: %d of %d", g.Updates(), len(trace))
		}
	}
	reportMpps(b, b.N*len(trace))
	if stats.Samples.Sum() < int64(len(trace)) {
		b.Fatalf("telemetry not live: counted %d of %d samples", stats.Samples.Sum(), len(trace))
	}
}
