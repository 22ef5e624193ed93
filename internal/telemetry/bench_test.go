package telemetry

import "testing"

// The TelemetryNoop* benchmarks pin the tentpole contract: instrumentation
// on a disabled (nil) metric must cost one nil check — 0 allocs/op and a
// couple of nanoseconds at most. `make bench-ingest` runs them alongside
// the ingest datapath benchmarks so a regression in either shows up in the
// same report.

func BenchmarkTelemetryNoopCounter(b *testing.B) {
	var c *Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryNoopGauge(b *testing.B) {
	var g *Gauge
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g.SetMax(int64(i))
	}
}

func BenchmarkTelemetryNoopHistogram(b *testing.B) {
	var h *Histogram
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}

func BenchmarkTelemetryNoopSpan(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := tr.Start("stage")
		sp.End()
	}
}

// Enabled-path reference numbers (one atomic add, or three for a
// histogram observation).

func BenchmarkTelemetryCounter(b *testing.B) {
	c := NewRegistry().Counter("umon_bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkTelemetryHistogram(b *testing.B) {
	h := NewRegistry().Histogram("umon_bench_ns", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(int64(i))
	}
}
