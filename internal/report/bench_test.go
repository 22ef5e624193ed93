package report

import (
	"math/rand"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavesketch"
)

// benchQueryable builds a decoded report with many heavy entries — the
// regime where the per-query cost of locating co-located heavy flows
// dominates the light estimate. heavyFlows is a lower bound on the elected
// heavy entries; the returned light keys miss the heavy part.
func benchQueryable(b *testing.B, heavyFlows int) (*Queryable, []flowkey.Key) {
	b.Helper()
	cfg := wavesketch.DefaultFull()
	cfg.Light.K = 32
	full, err := wavesketch.NewFull(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Heavy candidates: steady high-rate flows, spread over distinct slots
	// by construction (keys vary in SrcIP and SrcPort).
	for w := int64(0); w < 512; w++ {
		for f := 0; f < heavyFlows; f++ {
			full.Update(key(f), w, 1500)
		}
		// Mice: occasional small packets.
		if w%4 == 0 {
			for f := 0; f < 32; f++ {
				full.Update(key(10_000+f), w, 80)
			}
		}
	}
	full.Seal()
	q := mustQueryable(b, FromFull(0, 0, full))
	if got := len(q.HeavyFlows()); got < heavyFlows/2 {
		b.Fatalf("only %d heavy entries elected, want ≥ %d", got, heavyFlows/2)
	}
	light := make([]flowkey.Key, 0, 32)
	for f := 0; f < 32; f++ {
		if k := key(10_000 + f); !q.IsHeavy(k) {
			light = append(light, k)
		}
	}
	if len(light) == 0 {
		b.Fatal("no light flows survived election")
	}
	return q, light
}

// BenchmarkLightEstimate measures the steady-state cost of a light-flow
// query on a report with ≥64 heavy flows: the co-location work (finding
// which heavy flows share the flow's buckets) dominates once curves are
// memoized.
func BenchmarkLightEstimate(b *testing.B) {
	q, light := benchQueryable(b, 96)
	// Warm the reconstruction caches so the loop measures query cost, not
	// one-time decode cost.
	for _, k := range light {
		q.QueryRange(k, 0, 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.QueryRange(light[i%len(light)], 0, 512)
	}
}

// BenchmarkQueryRange measures heavy-flow queries (dedicated curve, cache
// warm) mixed with light ones — the analyzer's replay mix.
func BenchmarkQueryRange(b *testing.B) {
	q, light := benchQueryable(b, 96)
	heavy := q.HeavyFlows()
	for _, k := range heavy {
		q.QueryRange(k, 0, 512)
	}
	for _, k := range light {
		q.QueryRange(k, 0, 512)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%4 == 0 {
			q.QueryRange(light[i%len(light)], 128, 384)
		} else {
			q.QueryRange(heavy[i%len(heavy)], 128, 384)
		}
	}
}

// BenchmarkNewQueryable measures what index construction has left after
// parse — rank, heavy map, colocation lists, curve caches — on a dense
// report.
func BenchmarkNewQueryable(b *testing.B) {
	q, _ := benchQueryable(b, 96)
	rep := q.rep
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewQueryable(rep)
	}
}

// fleetReport is one report of the fleet geometry the collector benchmarks
// use: a 3×1024 basic sketch, L=8, K=1, 128 distinct flows — some 360
// non-empty buckets of one approximation value and at most one detail.
func fleetReport(tb testing.TB, host int) *HostReport {
	tb.Helper()
	s, err := wavesketch.NewBasic(wavesketch.Config{Rows: 3, Width: 1024, Levels: 8, K: 1, Seed: 0x5eed0f})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(host) + 1))
	for f := 0; f < 128; f++ {
		s.Update(key(host*128+f), int64(rng.Intn(32)), int64(64+rng.Intn(1400)))
	}
	s.Seal()
	return FromBasic(host, 0, s)
}

// table1Report is one report of the paper's Table 1 full sketch (h=256
// heavy slots, 1×256 light part, L=8, K=64) under a mix of steady heavy
// flows and mice.
func table1Report(tb testing.TB, host int) *HostReport {
	tb.Helper()
	full, err := wavesketch.NewFull(wavesketch.DefaultFull())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(int64(host) + 1))
	for w := int64(0); w < 512; w++ {
		for f := 0; f < 96; f++ {
			full.Update(key(host*1000+f), w, int64(500+rng.Intn(1000)))
		}
		if w%4 == 0 {
			for f := 0; f < 32; f++ {
				full.Update(key(host*1000+500+f), w, 80)
			}
		}
	}
	full.Seal()
	return FromFull(host, 0, full)
}

var benchReports = []struct {
	name  string
	build func(testing.TB, int) *HostReport
}{{"fleet3x1024", fleetReport}, {"table1", table1Report}}

// BenchmarkQueryColdCurve measures a query's first reconstruction: the
// first QueryRange of a fleet flow on a fresh Queryable parses its three
// row curves off the payload and reconstructs them — the work admit no
// longer does for every curve.
func BenchmarkQueryColdCurve(b *testing.B) {
	b.Run("fleet3x1024", func(b *testing.B) {
		rep, err := DecodeBytes(fleetReport(b, 0).AppendEncode(nil))
		if err != nil {
			b.Fatal(err)
		}
		qs := make([]*Queryable, 256)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%len(qs) == 0 {
				b.StopTimer()
				for j := range qs {
					qs[j] = mustQueryable(b, rep)
				}
				b.StartTimer()
			}
			qs[i%len(qs)].QueryRange(key(i%128), 0, 32)
		}
	})
}

// BenchmarkDecode measures DecodeBytes on one encoded report.
func BenchmarkDecode(b *testing.B) {
	for _, c := range benchReports {
		b.Run(c.name, func(b *testing.B) {
			enc := c.build(b, 0).AppendEncode(nil)
			b.SetBytes(int64(len(enc)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DecodeBytes(enc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAppendEncode measures encoding a sealed sketch's curves into a
// reused buffer with AppendSealed, the way the host monitors seal.
func BenchmarkAppendEncode(b *testing.B) {
	for _, c := range benchReports {
		b.Run(c.name, func(b *testing.B) {
			s := slabs(c.build(b, 0))
			hdr := s.header()
			buf := s.encode()
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = AppendSealed(buf[:0], hdr, s.Buckets, s.Heavy)
			}
		})
	}
}
