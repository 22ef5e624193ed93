package wavesketch

import (
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
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
