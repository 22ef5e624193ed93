package collect

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// admitHosts is the number of hosts whose reports make one epoch of
// BenchmarkAdmitEpoch — the fleet the scale fixture and bench/ serve. The
// fleet geometry also runs at an eighth of it and at eight times it: what
// an admit costs must not depend on how many hosts the epoch already holds.
const admitHosts = 125

var admitHostCounts = []int{16, admitHosts, 1000}

func admitKey(id int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0c000000 + uint32(id), DstIP: 0x0ac8c8c8,
		SrcPort: uint16(20000 + id%4096), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// fleetEpoch encodes one epoch of fleet-geometry reports: a 3×1024 basic
// sketch, L=8, K=1, 128 distinct flows per host.
func fleetEpoch(tb testing.TB, hosts int) [][]byte {
	tb.Helper()
	s, err := wavesketch.NewBasic(wavesketch.Config{Rows: 3, Width: 1024, Levels: 8, K: 1, Seed: 0x5eed0f})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	enc := make([][]byte, hosts)
	for h := range enc {
		s.Reset()
		for f := 0; f < 128; f++ {
			s.Update(admitKey(h*128+f), int64(rng.Intn(32)), int64(64+rng.Intn(1400)))
		}
		s.Seal()
		enc[h] = report.FromBasic(h, 0, s).AppendEncode(nil)
	}
	return enc
}

// table1Epoch encodes one epoch of the paper's Table 1 full sketch (h=256,
// 1×256 light part, L=8, K=64) under steady heavy flows and mice. Eight
// distinct sketches are sealed and dealt round the hosts: what an admit
// costs depends on a report's size, not on whose it is.
func table1Epoch(tb testing.TB) [][]byte {
	tb.Helper()
	full, err := wavesketch.NewFull(wavesketch.DefaultFull())
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	enc := make([][]byte, admitHosts)
	const sketches = 8
	for c := range sketches {
		full.Reset()
		for w := int64(0); w < 512; w++ {
			for f := 0; f < 96; f++ {
				full.Update(admitKey(c*1000+f), w, int64(500+rng.Intn(1000)))
			}
			if w%4 == 0 {
				for f := 0; f < 32; f++ {
					full.Update(admitKey(c*1000+500+f), w, 80)
				}
			}
		}
		full.Seal()
		for h := c; h < admitHosts; h += sketches {
			enc[h] = report.FromFull(h, 0, full).AppendEncode(nil)
		}
	}
	return enc
}

// BenchmarkAdmitEpoch measures the collector's admit path end to end —
// DecodeBytes, NewQueryable, the successor snapshot and the extended
// routing index — as one operation per epoch, with the bytes and
// allocations of one report beside it. The window holds one epoch, so every
// epoch after the first also evicts its predecessor.
func BenchmarkAdmitEpoch(b *testing.B) {
	admit := func(enc [][]byte) func(*testing.B) {
		return func(b *testing.B) {
			col := New(Config{WindowEpochs: 1})
			b.ReportAllocs()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for _, p := range enc {
					if err := col.AddEncoded(uint64(i), p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			if _, resident := col.Window(); resident != len(enc) {
				b.Fatalf("an epoch of %d payloads left %d reports resident: two payloads name one host", len(enc), resident)
			}
			reports := float64(b.N * len(enc))
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/reports, "B/report")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/reports, "allocs/report")
		}
	}
	b.Run("fleet3x1024", func(b *testing.B) {
		for _, hosts := range admitHostCounts {
			b.Run(fmt.Sprintf("hosts=%d", hosts), admit(fleetEpoch(b, hosts)))
		}
	})
	b.Run("table1", admit(table1Epoch(b)))
}
