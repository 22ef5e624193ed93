package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/wavesketch"
)

// placementTrace is a seeded multi-host trace: hosts × n samples over a
// skewed population of flows, so some flows win heavy slots and the rest
// share light buckets.
func placementTrace(hosts, n int) [][]measure.Sample {
	rng := rand.New(rand.NewSource(16))
	out := make([][]measure.Sample, hosts)
	for h := range out {
		out[h] = make([]measure.Sample, n)
		for i := range out[h] {
			f := rng.Intn(400)
			if rng.Intn(3) > 0 {
				f = rng.Intn(12) // elephants
			}
			out[h][i] = measure.Sample{
				Key: flowkey.Key{
					SrcIP: 0x0a000000 | uint32(h)<<8 | uint32(f&0xff), DstIP: 0x0a00ff00 | uint32(f>>8),
					SrcPort: uint16(20000 + f*7), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
				},
				Window: int64(i * 256 / n),
				Bytes:  int64(64 + rng.Intn(1400)),
			}
		}
	}
	return out
}

// TestSealedReportsPinned drives a seeded multi-host trace through the
// sketch update paths and pins the sealed, encoded reports: byte for byte
// to the oracle encoder, bucket by bucket to Hash(RowSeed(seed, r)) % width
// written out here with the divide, and as a whole to the digest the same
// trace gave before keys were packed once and indices masked. Covers the
// Table 1 full sketch (mask arm) and a 3×250 basic one (modulo arm).
func TestSealedReportsPinned(t *testing.T) {
	const pinned = "905b288f8eb5a6fde844d7da1dece0ab3611558bfcdba88e89288d9c3dbabd88"
	trace := placementTrace(4, 20000)
	odd := wavesketch.Config{Rows: 3, Width: 250, Levels: 8, K: 16, Seed: 77}
	sum := sha256.New()
	for h, samples := range trace {
		full, err := wavesketch.NewFull(wavesketch.DefaultFull())
		if err != nil {
			t.Fatal(err)
		}
		basic, err := wavesketch.NewBasic(odd)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range samples[:len(samples)/2] {
			full.Update(sm.Key, sm.Window, sm.Bytes)
			basic.Update(sm.Key, sm.Window, sm.Bytes)
		}
		full.UpdateBatch(samples[len(samples)/2:])
		basic.UpdateBatch(samples[len(samples)/2:])
		full.Seal()
		basic.Seal()
		for _, rep := range []*HostReport{FromFull(h, 0, full), FromBasic(h, 0, basic)} {
			enc := rep.AppendEncode(nil)
			var want bytes.Buffer
			if _, err := oracleEncode(rep, &want); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(enc, want.Bytes()) {
				t.Fatalf("host %d: AppendEncode differs from the oracle encoder", h)
			}
			sum.Write(enc)
			occupied := make(map[[2]int]bool, len(rep.Buckets))
			for _, b := range rep.Buckets {
				occupied[[2]int{b.Row, b.Index}] = true
			}
			hit := make(map[[2]int]bool)
			for _, sm := range samples {
				for r := 0; r < rep.Meta.Rows; r++ {
					idx := int(sm.Key.Hash(flowkey.RowSeed(rep.Meta.Seed, r)) % uint64(rep.Meta.Width))
					hit[[2]int{r, idx}] = true
				}
			}
			if len(hit) != len(occupied) {
				t.Fatalf("host %d: %d buckets reported, %d hashed to", h, len(occupied), len(hit))
			}
			for pos := range hit {
				if !occupied[pos] {
					t.Fatalf("host %d: no bucket reported at row %d index %d", h, pos[0], pos[1])
				}
			}
		}
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != pinned {
		t.Fatalf("encoded reports digest %s, want %s", got, pinned)
	}
}
