package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavesketch"
)

// sample is one (flow, window, bytes) sketch update.
type sample struct {
	Key    flowkey.Key
	Window int64
	Bytes  int64
}

// placementTrace is a seeded multi-host trace: hosts × n samples over a
// skewed population of flows, so some flows win heavy slots and the rest
// share light buckets.
func placementTrace(hosts, n int) [][]sample {
	rng := rand.New(rand.NewSource(16))
	out := make([][]sample, hosts)
	for h := range out {
		out[h] = make([]sample, n)
		for i := range out[h] {
			f := rng.Intn(400)
			if rng.Intn(3) > 0 {
				f = rng.Intn(12) // elephants
			}
			out[h][i] = sample{
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
// sketches' Update and pins the sealed, encoded reports: bucket by
// bucket to Hash(RowSeed(seed, r)) % width written out here with the
// divide, and as a whole to two digests. The content digest is taken over
// the version 1 bytes of every report with each curve's details sorted by
// (level, index); its value is the one the commit before wire version 2
// gave, when reports carried their details in heap order — what a host
// measures has not changed since, however it is coded — and the version 2
// bytes decode back to the same content. The wire digest is over the
// version 2 bytes themselves. Covers the Table 1 full sketch (mask arm) and
// a 3×250 basic one (modulo arm).
func TestSealedReportsPinned(t *testing.T) {
	const (
		pinnedContent = "5578d33ece9057c2dce9238990ab6ec55b27300db3021c01ee1e106184970970"
		pinnedWire    = "44d97e795e23e6ace4160c6f0574b14cf589b6b4ddf839b4a0ecf0a5037600a8"
	)
	trace := placementTrace(4, 20000)
	odd := wavesketch.Config{Rows: 3, Width: 250, Levels: 8, K: 16, Seed: 77}
	sum, content := sha256.New(), sha256.New()
	for h, samples := range trace {
		full, err := wavesketch.NewFull(wavesketch.DefaultFull())
		if err != nil {
			t.Fatal(err)
		}
		basic, err := wavesketch.NewBasic(odd)
		if err != nil {
			t.Fatal(err)
		}
		for _, sm := range samples {
			full.Update(sm.Key, sm.Window, sm.Bytes)
			basic.Update(sm.Key, sm.Window, sm.Bytes)
		}
		full.Seal()
		basic.Seal()
		for _, c := range []struct {
			rep    *HostReport
			sealed *slabReport
		}{
			{FromFull(h, 0, full), sealedSlab(h, full.Light(), full.ExportHeavy(nil))},
			{FromBasic(h, 0, basic), sealedSlab(h, basic, nil)},
		} {
			rep, enc := c.rep, c.rep.AppendEncode(nil)
			sum.Write(enc)
			sorted := v1Bytes(t, canonical(c.sealed, byLevelIndex))
			content.Write(sorted)
			if dec, err := DecodeBytes(enc); err != nil || !bytes.Equal(v1Bytes(t, canonical(slabs(dec), byLevelIndex)), sorted) {
				t.Fatalf("host %d: the version 2 bytes do not decode to the report's content (err %v)", h, err)
			}
			occupied := make(map[[2]int]bool, len(c.sealed.Buckets))
			for _, b := range c.sealed.Buckets {
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
	if got := hex.EncodeToString(content.Sum(nil)); got != pinnedContent {
		t.Errorf("content digest %s, want %s", got, pinnedContent)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != pinnedWire {
		t.Errorf("wire digest %s, want %s", got, pinnedWire)
	}
}
