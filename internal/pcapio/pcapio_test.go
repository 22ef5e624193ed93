package pcapio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	pkts := []Packet{
		{TimestampNs: 1_000_000_123, Data: []byte{1, 2, 3, 4}, OrigLen: 4},
		{TimestampNs: 2_999_999_999, Data: bytes.Repeat([]byte{0xaa}, 100), OrigLen: 150},
	}
	for _, p := range pkts {
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != LinkTypeEthernet {
		t.Errorf("link type = %d, want %d", r.LinkType, LinkTypeEthernet)
	}
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(pkts) {
		t.Fatalf("read %d packets, want %d", len(got), len(pkts))
	}
	for i := range pkts {
		if got[i].TimestampNs != pkts[i].TimestampNs {
			t.Errorf("pkt %d timestamp = %d, want %d", i, got[i].TimestampNs, pkts[i].TimestampNs)
		}
		if !bytes.Equal(got[i].Data, pkts[i].Data) {
			t.Errorf("pkt %d data mismatch", i)
		}
		if got[i].OrigLen != pkts[i].OrigLen {
			t.Errorf("pkt %d origLen = %d, want %d", i, got[i].OrigLen, pkts[i].OrigLen)
		}
	}
}

func TestSnapLenTruncates(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 8)
	w.WritePacket(Packet{TimestampNs: 1, Data: bytes.Repeat([]byte{7}, 64), OrigLen: 64})
	w.Flush()
	r, _ := NewReader(&buf)
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Data) != 8 || p.OrigLen != 64 {
		t.Errorf("capLen/origLen = %d/%d, want 8/64", len(p.Data), p.OrigLen)
	}
}

func TestEmptyCapture(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("empty capture read = %v, want EOF", err)
	}
}

// TestFileHeaderOnRecycledBlock: putFileHeader writes every header byte —
// thiszone and sigfigs come out zero over a buffer full of stale bytes — so
// a capture does not depend on what its buffer held before.
func TestFileHeaderOnRecycledBlock(t *testing.T) {
	h := bytes.Repeat([]byte{0xa5}, fileHeaderLen)
	putFileHeader(h, 65535)
	var buf bytes.Buffer
	if err := NewWriter(&buf, 0).Flush(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(h, buf.Bytes()) || !bytes.Equal(h[8:16], make([]byte, 8)) {
		t.Errorf("file header % x over stale bytes, % x from a Writer: bytes 8..16 must be zero", h, buf.Bytes())
	}
}

func TestMicrosecondMagicAccepted(t *testing.T) {
	var buf bytes.Buffer
	var h [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], magicMicro)
	binary.LittleEndian.PutUint32(h[16:20], 65535)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
	buf.Write(h[:])
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], 1)      // 1 s
	binary.LittleEndian.PutUint32(rec[4:8], 500000) // 500 ms in µs
	binary.LittleEndian.PutUint32(rec[8:12], 2)
	binary.LittleEndian.PutUint32(rec[12:16], 2)
	buf.Write(rec[:])
	buf.Write([]byte{9, 9})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.ReadPacket()
	if err != nil {
		t.Fatal(err)
	}
	if p.TimestampNs != 1_500_000_000 {
		t.Errorf("timestamp = %d, want 1.5 s in ns", p.TimestampNs)
	}
}

func TestBigEndianHeader(t *testing.T) {
	var buf bytes.Buffer
	var h [fileHeaderLen]byte
	binary.BigEndian.PutUint32(h[0:4], magicNano)
	binary.BigEndian.PutUint32(h[16:20], 65535)
	binary.BigEndian.PutUint32(h[20:24], LinkTypeEthernet)
	buf.Write(h[:])
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkType != LinkTypeEthernet {
		t.Errorf("big-endian link type = %d", r.LinkType)
	}
}

func TestBadMagicRejected(t *testing.T) {
	buf := bytes.NewReader(bytes.Repeat([]byte{0x42}, fileHeaderLen))
	if _, err := NewReader(buf); err == nil {
		t.Error("bad magic must be rejected")
	}
	if _, err := NewReader(bytes.NewReader(nil)); err == nil {
		t.Error("empty input must be rejected")
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WritePacket(Packet{TimestampNs: 1, Data: []byte{1, 2, 3}, OrigLen: 3})
	w.Flush()
	b := buf.Bytes()
	r, _ := NewReader(bytes.NewReader(b[:len(b)-1]))
	if _, err := r.ReadPacket(); err == nil {
		t.Error("truncated record body must error")
	}
}
