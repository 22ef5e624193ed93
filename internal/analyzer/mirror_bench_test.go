package analyzer_test

import (
	"bytes"
	"io"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/packet"
	"umon/internal/pcapio"
	"umon/internal/uevent"
)

// buildMirrorCapture returns an in-memory mirror pcap with n mirrored
// event packets spread over 16 flows and 4 observation ports — the shape
// umon-analyze ingests.
func buildMirrorCapture(tb testing.TB, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := pcapio.NewWriter(&buf, 0)
	for i := 0; i < n; i++ {
		f := flowkey.Key{
			SrcIP:   0x0a000100 + uint32(i%16),
			DstIP:   0x0a000201,
			SrcPort: uint16(9000 + i%16),
			DstPort: 4791,
			Proto:   flowkey.ProtoUDP,
		}
		rec := uevent.MirrorRecord{
			Port:        netsim.PortID{Switch: int16(i % 4), Port: 1},
			TimestampNs: 100_000 + int64(i)*1_000,
			PSN:         uint32(i) * 64,
			OrigBytes:   1058, WireBytes: 1058,
			Flow: f,
		}
		if err := w.WritePacket(pcapio.Packet{
			TimestampNs: rec.TimestampNs,
			Data:        uevent.AppendMirrorPacket(nil, rec),
			OrigLen:     1058,
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkMirrorReadDecode measures the zero-copy read→decode→parse
// path: batched pcap reads into one pooled block, in-place decode. The
// acceptance path for the mirror-datapath rework — 0 allocs/op steady
// state.
func BenchmarkMirrorReadDecode(b *testing.B) {
	const pkts = 8192
	raw := buildMirrorCapture(b, pkts)
	var batch pcapio.Batch
	var m packet.Mirrored
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		rd, err := pcapio.NewReaderOpts(bytes.NewReader(raw), pcapio.ReaderOpts{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := rd.ReadBatch(&batch, pcapio.DefaultBatchSize)
			for _, p := range batch.Pkts[:n] {
				if err := packet.DecodeMirrorInto(p.Data, &m); err != nil {
					b.Fatal(err)
				}
			}
			done += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		rd.Close()
	}
}

// BenchmarkMirrorIngestE2E measures the full mirror datapath the analyzer
// CLI runs per packet: batched pcap read → in-place wire decode → event
// clustering. ns/op is per mirrored packet.
func BenchmarkMirrorIngestE2E(b *testing.B) {
	const pkts = 8192
	raw := buildMirrorCapture(b, pkts)
	var batch pcapio.Batch
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		a := analyzer.New()
		b.StartTimer()
		rd, err := pcapio.NewReaderOpts(bytes.NewReader(raw), pcapio.ReaderOpts{})
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := rd.ReadBatch(&batch, pcapio.DefaultBatchSize)
			for _, p := range batch.Pkts[:n] {
				if err := a.AddMirrorPacket(p.Data); err != nil {
					b.Fatal(err)
				}
			}
			done += n
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		rd.Close()
	}
}
