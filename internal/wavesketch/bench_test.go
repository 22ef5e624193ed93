package wavesketch

import (
	"testing"

	"umon/internal/flowkey"
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
