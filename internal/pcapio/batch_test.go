package pcapio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"unsafe"

	"umon/internal/mbuf"
)

// buildCapture writes n records of varying size and returns the stream
// plus the expected packets.
func buildCapture(t *testing.T, n int) ([]byte, []Packet) {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	var want []Packet
	for i := 0; i < n; i++ {
		size := 20 + i%97
		data := bytes.Repeat([]byte{byte(i)}, size)
		p := Packet{TimestampNs: int64(i) * 12_345, Data: data, OrigLen: size + 4}
		if err := w.WritePacket(p); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), want
}

func checkPackets(t *testing.T, got, want []Packet) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].TimestampNs != want[i].TimestampNs {
			t.Errorf("pkt %d timestamp = %d, want %d", i, got[i].TimestampNs, want[i].TimestampNs)
		}
		if !bytes.Equal(got[i].Data, want[i].Data) {
			t.Errorf("pkt %d data mismatch", i)
		}
		if got[i].OrigLen != want[i].OrigLen {
			t.Errorf("pkt %d origLen = %d, want %d", i, got[i].OrigLen, want[i].OrigLen)
		}
	}
}

// drainBatches reads the whole stream through ReadBatch, copying each
// view before the next refill invalidates it.
func drainBatches(t *testing.T, r *Reader, max int) []Packet {
	t.Helper()
	var b Batch
	var out []Packet
	for {
		n, err := r.ReadBatch(&b, max)
		for _, p := range b.Pkts[:n] {
			out = append(out, Packet{
				TimestampNs: p.TimestampNs,
				Data:        append([]byte(nil), p.Data...),
				OrigLen:     p.OrigLen,
			})
		}
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestReadBatchMatchesWriter(t *testing.T) {
	raw, want := buildCapture(t, 500)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkPackets(t, drainBatches(t, r, 64), want)
}

// TestBatchBlockBoundaries forces record headers and bodies to straddle
// block reads: with a block barely larger than one record, every refill
// splits somewhere — mid-header, mid-body, at a record edge.
func TestBatchBlockBoundaries(t *testing.T) {
	raw, want := buildCapture(t, 300)
	for _, blk := range []int{16, 17, 31, 64, 100, 137, 256} {
		r, err := newBlockReader(bytes.NewReader(raw), ReaderOpts{}, blk)
		if err != nil {
			t.Fatalf("block %d: %v", blk, err)
		}
		got := drainBatches(t, r, 7)
		r.Close()
		checkPackets(t, got, want)
	}
}

// TestBatchViewsStayValidUntilNextReadBatch pins the one-block contract:
// with blocks a few records long, so that nearly every ReadBatch moves a
// record tail to the front of the block, each batch's views read back the
// capture until the next ReadBatch, and the block goes back to the pool at
// Close.
func TestBatchViewsStayValidUntilNextReadBatch(t *testing.T) {
	raw, want := buildCapture(t, 200)
	pool := mbuf.New(mbuf.Config{})
	r, err := newBlockReader(bytes.NewReader(raw), ReaderOpts{Pool: pool}, 512)
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	got, batches := 0, 0
	for {
		n, err := r.ReadBatch(&b, 0)
		checkPackets(t, b.Pkts[:n], want[got:got+n])
		got += n
		batches++
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if got != len(want) || batches < len(raw)/512 {
		t.Fatalf("read %d of %d packets in %d batches", got, len(want), batches)
	}
	if live := pool.Live(); live != 1 {
		t.Errorf("pool live = %d before Close, want 1", live)
	}
	r.Close()
	if live := pool.Live(); live != 0 {
		t.Errorf("pool live = %d after Close, want 0", live)
	}
}

// trickle delivers a capture at most chunk bytes per Read and logs the
// running total after each, so a test can tell what a ReadBatch read.
type trickle struct {
	raw   []byte
	chunk int
	marks []int // bytes delivered after each Read
}

func (tr *trickle) Read(p []byte) (int, error) {
	done := 0
	if len(tr.marks) > 0 {
		done = tr.marks[len(tr.marks)-1]
	}
	if done == len(tr.raw) {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), tr.chunk)], tr.raw[done:])
	tr.marks = append(tr.marks, done+n)
	return n, nil
}

// TestReadBatchHandsOverWhatItHolds is the tailing contract: over a reader
// that delivers a few bytes per Read, ReadBatch returns only complete
// records and never 0 with a nil error, reads no further once it holds a
// packet, takes every record wholly delivered by then, and the batches
// concatenate to the one-shot read.
func TestReadBatchHandsOverWhatItHolds(t *testing.T) {
	raw, want := buildCapture(t, 120)
	end := make([]int, len(want)) // file offset one past each record
	off := fileHeaderLen
	for i, p := range want {
		off += recordHeaderLen + len(p.Data)
		end[i] = off
	}
	for _, chunk := range []int{1, 5, 36, 100, 1000} {
		tr := &trickle{raw: raw, chunk: chunk}
		r, err := NewReader(tr)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		var got []Packet
		var b Batch
		for {
			before := len(tr.marks)
			n, err := r.ReadBatch(&b, 0)
			if err == io.EOF && n == 0 {
				break
			}
			if err != nil || n == 0 {
				t.Fatalf("chunk %d: ReadBatch = %d, %v after %d packets", chunk, n, err, len(got))
			}
			first, next := len(got), len(got)+n
			if reads := len(tr.marks); reads > before && reads >= 2 && tr.marks[reads-2] >= end[first] {
				t.Fatalf("chunk %d: ReadBatch read on with record %d already whole", chunk, first)
			}
			delivered := tr.marks[len(tr.marks)-1]
			if next < len(want) && n < DefaultBatchSize && end[next] <= delivered {
				t.Fatalf("chunk %d: batch stops at record %d, which was wholly delivered", chunk, next)
			}
			for _, p := range b.Pkts[:n] {
				p.Data = append([]byte(nil), p.Data...)
				got = append(got, p)
			}
		}
		r.Close()
		checkPackets(t, got, want)
	}
}

// TestBatchRelease: closing a Reader in the middle of its stream gives
// its block back to the pool.
func TestBatchRelease(t *testing.T) {
	raw, _ := buildCapture(t, 50)
	pool := mbuf.New(mbuf.Config{})
	r, err := NewReaderOpts(bytes.NewReader(raw), ReaderOpts{Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	var b Batch
	if _, err := r.ReadBatch(&b, 0); err != nil {
		t.Fatal(err)
	}
	r.Close()
	if live := pool.Live(); live != 0 {
		t.Errorf("pool live = %d after Close, want 0", live)
	}
}

// TestBigEndianRoundTripThroughBatches runs a hand-built big-endian
// nanosecond capture through the block reader.
func TestBigEndianRoundTripThroughBatches(t *testing.T) {
	var buf bytes.Buffer
	var h [fileHeaderLen]byte
	binary.BigEndian.PutUint32(h[0:4], magicNano)
	binary.BigEndian.PutUint32(h[16:20], 65535)
	binary.BigEndian.PutUint32(h[20:24], LinkTypeEthernet)
	buf.Write(h[:])
	var rec [recordHeaderLen]byte
	binary.BigEndian.PutUint32(rec[0:4], 3)   // 3 s
	binary.BigEndian.PutUint32(rec[4:8], 21)  // 21 ns
	binary.BigEndian.PutUint32(rec[8:12], 4)  // capLen
	binary.BigEndian.PutUint32(rec[12:16], 9) // origLen
	buf.Write(rec[:])
	buf.Write([]byte{1, 2, 3, 4})

	r, err := newBlockReader(&buf, ReaderOpts{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainBatches(t, r, 0)
	checkPackets(t, got, []Packet{{TimestampNs: 3_000_000_021, Data: []byte{1, 2, 3, 4}, OrigLen: 9}})
}

// TestMicrosecondMagicThroughBatches checks the µs→ns conversion
// survives the block reader.
func TestMicrosecondMagicThroughBatches(t *testing.T) {
	var buf bytes.Buffer
	var h [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], magicMicro)
	binary.LittleEndian.PutUint32(h[16:20], 65535)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
	buf.Write(h[:])
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[0:4], 2)       // 2 s
	binary.LittleEndian.PutUint32(rec[4:8], 250_000) // 250 ms in µs
	binary.LittleEndian.PutUint32(rec[8:12], 1)
	binary.LittleEndian.PutUint32(rec[12:16], 1)
	buf.Write(rec[:])
	buf.WriteByte(0x7f)

	r, err := newBlockReader(&buf, ReaderOpts{}, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got := drainBatches(t, r, 0)
	checkPackets(t, got, []Packet{{TimestampNs: 2_250_000_000, Data: []byte{0x7f}, OrigLen: 1}})
}

// TestImplausibleCapLen rejects absurd capture lengths on both paths.
func TestImplausibleCapLen(t *testing.T) {
	var buf bytes.Buffer
	var h [fileHeaderLen]byte
	binary.LittleEndian.PutUint32(h[0:4], magicNano)
	binary.LittleEndian.PutUint32(h[16:20], 65535)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
	buf.Write(h[:])
	var rec [recordHeaderLen]byte
	binary.LittleEndian.PutUint32(rec[8:12], 1<<30) // capLen: 1 GiB
	buf.Write(rec[:])
	raw := buf.Bytes()

	r, _ := NewReader(bytes.NewReader(raw))
	if _, err := r.ReadPacket(); err == nil {
		t.Error("ReadPacket must reject implausible capture length")
	}
	r2, _ := NewReader(bytes.NewReader(raw))
	var b Batch
	if _, err := r2.ReadBatch(&b, 0); err == nil {
		t.Error("ReadBatch must reject implausible capture length")
	}
}

// TestTruncatedRecordBatch mirrors TestTruncatedRecord on the batch path.
func TestTruncatedRecordBatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WritePacket(Packet{TimestampNs: 1, Data: bytes.Repeat([]byte{6}, 40), OrigLen: 40})
	w.Flush()
	raw := buf.Bytes()
	r, _ := newBlockReader(bytes.NewReader(raw[:len(raw)-7]), ReaderOpts{}, 32)
	var b Batch
	if _, err := r.ReadBatch(&b, 0); err == nil || err == io.EOF {
		t.Errorf("truncated record body must error, got %v", err)
	}
}

// TestPartialRecordHeaderMapsToEOF preserves the classic tolerance: a
// stream ending inside a record header reads as a clean EOF.
func TestPartialRecordHeaderMapsToEOF(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 0)
	w.WritePacket(Packet{TimestampNs: 1, Data: []byte{1, 2}, OrigLen: 2})
	w.Flush()
	raw := buf.Bytes()
	// Keep the full first record plus 5 bytes of a second record header.
	cut := append(append([]byte(nil), raw...), 0, 0, 0, 0, 0)
	r, _ := NewReader(bytes.NewReader(cut))
	if _, err := r.ReadPacket(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadPacket(); err != io.EOF {
		t.Errorf("partial trailing header = %v, want EOF", err)
	}
}

// TestReadAllCompactArena checks ReadAll returns one shared backing
// array, not one slab per packet.
func TestReadAllCompactArena(t *testing.T) {
	raw, want := buildCapture(t, 64)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := r.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	checkPackets(t, got, want)
	// All Data slices must live in one compact arena: each packet's bytes
	// start exactly where the previous packet's end.
	for i := 1; i < len(got); i++ {
		prev := got[i-1].Data
		wantPtr := unsafe.Add(unsafe.Pointer(&prev[0]), len(prev))
		if unsafe.Pointer(&got[i].Data[0]) != wantPtr {
			t.Fatalf("pkt %d not adjacent in arena", i)
		}
	}
}

// TestWritePacketBatchRoundTrip drives the batch writer and reads it all
// back.
func TestWritePacketBatchRoundTrip(t *testing.T) {
	var ps []Packet
	for i := 0; i < 300; i++ {
		ps = append(ps, Packet{
			TimestampNs: int64(i) * 999,
			Data:        bytes.Repeat([]byte{byte(i)}, 10+i%50),
			OrigLen:     10 + i%50,
		})
	}
	var buf bytes.Buffer
	w := newBlockWriter(&buf, 512)
	if err := w.WritePacketBatch(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkPackets(t, drainBatches(t, r, 0), ps)
}

// TestWriterOversizedRecord exercises the direct-write path for records
// larger than the coalescing block.
func TestWriterOversizedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := newBlockWriter(&buf, 64)
	big := bytes.Repeat([]byte{0xbe}, 500)
	ps := []Packet{
		{TimestampNs: 1, Data: []byte{1}, OrigLen: 1},
		{TimestampNs: 2, Data: big, OrigLen: 500},
		{TimestampNs: 3, Data: []byte{3}, OrigLen: 1},
	}
	if err := w.WritePacketBatch(ps); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	checkPackets(t, drainBatches(t, r, 0), ps)
}
