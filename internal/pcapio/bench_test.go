package pcapio

import (
	"bytes"
	"io"
	"testing"
)

// benchCapture builds an in-memory capture of n records of size bytes.
func benchCapture(tb testing.TB, n, size int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	payload := bytes.Repeat([]byte{0x5a}, size)
	for i := 0; i < n; i++ {
		if err := w.WritePacket(Packet{TimestampNs: int64(i) * 1000, Data: payload, OrigLen: size}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkPcapReadPacket measures the record-at-a-time copying read path.
func BenchmarkPcapReadPacket(b *testing.B) {
	const pkts = 8192
	raw := benchCapture(b, pkts, 66)
	b.ReportAllocs()
	b.SetBytes(66)
	b.ResetTimer()
	for done := 0; done < b.N; {
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			p, err := rd.ReadPacket()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			_ = p
			done++
		}
		rd.Close()
	}
}

// BenchmarkPcapReadBatch measures the zero-copy batch read path: one
// pooled block, views handed out in batches.
func BenchmarkPcapReadBatch(b *testing.B) {
	const pkts = 8192
	raw := benchCapture(b, pkts, 66)
	var batch Batch
	b.ReportAllocs()
	b.SetBytes(66)
	b.ResetTimer()
	for done := 0; done < b.N; {
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		for {
			n, err := rd.ReadBatch(&batch, DefaultBatchSize)
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

// BenchmarkPcapWriteBatch measures the batched write path.
func BenchmarkPcapWriteBatch(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 66)
	batch := make([]Packet, 256)
	for i := range batch {
		batch[i] = Packet{TimestampNs: int64(i), Data: payload, OrigLen: 66}
	}
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	b.ReportAllocs()
	b.SetBytes(66)
	b.ResetTimer()
	w := NewWriter(&buf, 0)
	for done := 0; done < b.N; done += len(batch) {
		if buf.Len() > 1<<20 {
			buf.Reset()
		}
		if err := w.WritePacketBatch(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPcapWritePacket measures the record-at-a-time write path.
func BenchmarkPcapWritePacket(b *testing.B) {
	payload := bytes.Repeat([]byte{0x5a}, 66)
	var buf bytes.Buffer
	buf.Grow(1 << 20)
	b.ReportAllocs()
	b.SetBytes(66)
	b.ResetTimer()
	w := NewWriter(&buf, 0)
	for i := 0; i < b.N; i++ {
		if buf.Len() > 1<<20 {
			buf.Reset()
		}
		if err := w.WritePacket(Packet{TimestampNs: int64(i), Data: payload, OrigLen: 66}); err != nil {
			b.Fatal(err)
		}
	}
}
