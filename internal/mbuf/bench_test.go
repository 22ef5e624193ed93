package mbuf

import "testing"

// BenchmarkMbufPoolBlockCycle measures the pcap block size the reader
// takes from the pool and gives back.
func BenchmarkMbufPoolBlockCycle(b *testing.B) {
	p := New(Config{})
	p.Free(p.Alloc(1 << 18))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Free(p.Alloc(1 << 18))
	}
}
