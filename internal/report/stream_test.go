package report

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// testReport builds a small but non-trivial report for host h.
func testReport(h int, period int64) *slabReport {
	r := &slabReport{
		Host:        h,
		PeriodStart: period,
		WindowShift: 13,
		Meta:        SketchMeta{Rows: 2, Width: 8, Levels: 3, Seed: 42},
	}
	for row := 0; row < 2; row++ {
		r.Buckets = append(r.Buckets, wavesketch.BucketExport{
			Row: row, Index: (h + row) % 8, W0: period, Len: 8,
			Approx:  []int64{int64(h + 1), int64(row + 2)},
			Details: []wavelet.DetailRef{{Level: 1, Index: 0, Val: int64(h - 3)}},
		})
	}
	r.Heavy = append(r.Heavy, wavesketch.HeavyExport{
		Key: flowkey.Key{SrcIP: uint32(h + 1), DstIP: 2, SrcPort: 7, DstPort: 4791, Proto: 17},
		W0:  period, Len: 8, Approx: []int64{int64(100 * h)},
	})
	return r
}

// writeTestStream frames reports for hosts×epochs and returns the bytes.
func writeTestStream(t *testing.T, hosts, epochs int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		for h := 0; h < hosts; h++ {
			if err := sw.WriteReport(uint64(e), testReport(h, int64(e*1000))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamReadsVersion1Captures: wire version 1 is retired. DecodeBytes
// answers "unsupported version 1", and a .umstream that still carries
// version 1 payloads reads as one bad frame each with the reader left
// framed: the version 2 frames between them read to what they always did.
func TestStreamReadsVersion1Captures(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	reps := []*slabReport{slabs(table1Report(t, 0)), slabs(fleetReport(t, 1)), testReport(2, 512)}
	for h, r := range reps {
		old := v1Bytes(t, r)
		if _, err := DecodeBytes(old); err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("report %d: DecodeBytes of version 1 bytes: %v, want unsupported version 1", h, err)
		}
		if err := sw.WriteEncoded(0, h, old); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteReport(1, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, bad, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != len(reps) || len(got) != len(reps) {
		t.Fatalf("read %d reports, %d bad frames, err %v; want %d and %d", len(got), bad, err, len(reps), len(reps))
	}
	for i, r := range reps {
		if cur := got[i]; cur.Epoch != 1 || !reflect.DeepEqual(slabs(cur.Report), canonical(r, byTreeID)) {
			t.Errorf("report %d: the version 2 frame after a version 1 frame reads differently", i)
		}
	}
}

func TestStreamRoundTrip(t *testing.T) {
	raw := writeTestStream(t, 3, 4)
	reports, bad, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("bad frames = %d, want 0", bad)
	}
	if len(reports) != 12 {
		t.Fatalf("decoded %d reports, want 12", len(reports))
	}
	i := 0
	for e := 0; e < 4; e++ {
		for h := 0; h < 3; h++ {
			got := reports[i]
			if got.Epoch != uint64(e) {
				t.Errorf("report %d epoch = %d, want %d", i, got.Epoch, e)
			}
			if !bytes.Equal(got.Report.AppendEncode(nil), testReport(h, int64(e*1000)).encode()) {
				t.Errorf("report %d round-trip mismatch", i)
			}
			i++
		}
	}
}

func TestStreamWithoutCloseStillReadable(t *testing.T) {
	// A live stream (pipe, growing file) is a prefix of the finished file:
	// the sequential reader decodes every whole frame and ends at EOF, and
	// Close adds nothing to it.
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf)
	for e := 0; e < 3; e++ {
		if err := sw.WriteReport(uint64(e), testReport(0, int64(e))); err != nil {
			t.Fatal(err)
		}
	}
	reports, bad, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("unclosed stream read: %v (bad %d)", err, bad)
	}
	if len(reports) != 3 {
		t.Fatalf("decoded %d, want 3", len(reports))
	}
	n := buf.Len()
	if err := sw.Close(); err != nil || buf.Len() != n {
		t.Errorf("Close: %v, wrote %d bytes, want none", err, buf.Len()-n)
	}
}

// withLegacyIndex appends to a finished stream what StreamWriter.Close
// wrote before the epoch index was dropped: a frame of type 2, host 0 and
// epoch 0 whose payload is the uvarint count of report frames and then
// (epoch, host, offset, length) for each, followed by the 16-byte footer
// (footerMagic, 0, the index frame's offset).
func withLegacyIndex(tb testing.TB, raw []byte) []byte {
	tb.Helper()
	var n uint64
	var entries []byte
	for off := streamHeaderLen; off < len(raw); {
		total := frameHeaderLen + int(binary.LittleEndian.Uint32(raw[off+20:])) + 4
		if raw[off+4] == FrameReport {
			n++
			entries = binary.AppendUvarint(entries, binary.LittleEndian.Uint64(raw[off+12:]))
			entries = binary.AppendUvarint(entries, uint64(binary.LittleEndian.Uint32(raw[off+8:])))
			entries = binary.AppendUvarint(entries, uint64(off))
			entries = binary.AppendUvarint(entries, uint64(total))
		}
		off += total
	}
	buf := bytes.NewBuffer(bytes.Clone(raw))
	sw := &StreamWriter{w: buf}
	if err := sw.writeFrame(2, 0, 0, 0, append(binary.AppendUvarint(nil, n), entries...)); err != nil {
		tb.Fatal(err)
	}
	footer := binary.LittleEndian.AppendUint32(nil, footerMagic)
	footer = binary.LittleEndian.AppendUint32(footer, 0)
	buf.Write(binary.LittleEndian.AppendUint64(footer, uint64(len(raw))))
	return buf.Bytes()
}

// TestStreamReadsLegacyIndexAndFooter: a file an older writer closed with
// its epoch index and footer reads as the same file without them — the
// same reports, no bad frame, a clean end of stream.
func TestStreamReadsLegacyIndexAndFooter(t *testing.T) {
	raw := writeTestStream(t, 3, 4)
	want, _, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	legacy := withLegacyIndex(t, raw)
	got, bad, err := ReadStream(bytes.NewReader(legacy))
	if err != nil || bad != 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy stream: %d reports, %d bad, err %v; want the %d reports without the tail", len(got), bad, err, len(want))
	}
	sr, err := NewStreamReader(bytes.NewReader(legacy))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	for range want {
		if err := sr.Next(&f); err != nil {
			t.Fatal(err)
		}
	}
	if err := sr.Next(&f); err != io.EOF {
		t.Errorf("after the last report: %v, want io.EOF", err)
	}
}

func TestStreamBadCRCIsSkippable(t *testing.T) {
	raw := writeTestStream(t, 1, 3)
	// Flip one payload byte inside the second frame.
	corrupt := append([]byte(nil), raw...)
	corrupt[streamHeaderLen+frameHeaderLen+5+firstFrameLen(raw)] ^= 0xFF
	reports, bad, err := ReadStream(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatalf("corrupted stream must be skippable, got %v", err)
	}
	if bad != 1 {
		t.Errorf("bad frames = %d, want 1", bad)
	}
	if len(reports) != 2 {
		t.Errorf("surviving reports = %d, want 2", len(reports))
	}
}

// firstFrameLen reads the first frame's length out of its header.
func firstFrameLen(raw []byte) int {
	plen := int(binary.LittleEndian.Uint32(raw[streamHeaderLen+20:]))
	return frameHeaderLen + plen + 4
}

func TestStreamTruncation(t *testing.T) {
	raw := writeTestStream(t, 1, 2)
	// Cut mid-way through the second frame: first report must decode, then
	// the reader reports an unexpected EOF.
	cut := streamHeaderLen + firstFrameLen(raw) + 10
	sr, err := NewStreamReader(bytes.NewReader(raw[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := sr.Next(&f); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	err = sr.Next(&f)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated frame error = %v, want unexpected EOF", err)
	}
}

// oversizedFrame is a 32-byte stream, the stream header and one frame
// header, whose frame declares a 2²⁸-byte payload that never comes.
func oversizedFrame() []byte {
	b := binary.LittleEndian.AppendUint32(nil, streamMagic)
	b = binary.LittleEndian.AppendUint32(b, streamVersion)
	hdr := make([]byte, frameHeaderLen)
	binary.LittleEndian.PutUint32(hdr, frameMagic)
	hdr[4] = FrameReport
	binary.LittleEndian.PutUint32(hdr[20:], maxFramePayload)
	return append(b, hdr...)
}

// TestOversizedFrameAllocatesLittle: a frame header sizes no allocation.
// Read by Next, the stream above is a truncated frame that cost under
// 1 MiB — not the 256 MiB its header declares.
func TestOversizedFrameAllocatesLittle(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	sr, err := NewStreamReader(bytes.NewReader(oversizedFrame()))
	if err == nil {
		err = sr.Next(&Frame{})
	}
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("%v, want a truncated frame", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("%d bytes allocated, want < 1 MiB", got)
	}
}

func TestStreamUnknownVersionAndTypeSkipped(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf)
	sw.WriteReport(0, testReport(0, 0))
	// A future payload version and a future frame type, both CRC-valid.
	if err := sw.writeFrame(FrameReport, 9, 1, 1, []byte("future-encoding")); err != nil {
		t.Fatal(err)
	}
	if err := sw.writeFrame(77, 0, 2, 2, []byte("future-type")); err != nil {
		t.Fatal(err)
	}
	sw.WriteReport(3, testReport(0, 3))
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	var got []uint64
	for {
		err := sr.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, f.Epoch)
	}
	if !reflect.DeepEqual(got, []uint64{0, 3}) {
		t.Errorf("report epochs = %v, want [0 3]: the two future frames skipped", got)
	}
}

func TestStreamBadMagicIsFatal(t *testing.T) {
	raw := writeTestStream(t, 1, 2)
	corrupt := append([]byte(nil), raw...)
	corrupt[streamHeaderLen] ^= 0xFF // first frame magic
	sr, err := NewStreamReader(bytes.NewReader(corrupt))
	if err != nil {
		t.Fatal(err)
	}
	var f Frame
	if err := sr.Next(&f); !errors.Is(err, ErrStreamCorrupt) {
		t.Errorf("bad frame magic error = %v, want ErrStreamCorrupt", err)
	}
}

func TestStreamHeaderValidation(t *testing.T) {
	if _, err := NewStreamReader(bytes.NewReader([]byte("uM"))); err == nil {
		t.Error("short header must fail")
	}
	if _, err := NewStreamReader(bytes.NewReader(make([]byte, 16))); err == nil {
		t.Error("zero magic must fail")
	}
}

func TestStreamWriterAccounting(t *testing.T) {
	var buf bytes.Buffer
	sw, _ := NewStreamWriter(&buf)
	sw.WriteReport(5, testReport(1, 0))
	sw.WriteReport(6, testReport(2, 0))
	sw.WriteStamp(6, 2, EpochStamp{SealNs: 1, ShipNs: 2})
	if sw.Frames() != 2 {
		t.Errorf("Frames() = %d, want 2: stamps are not report frames", sw.Frames())
	}
	// Read in order, the buffer is the stream header and the three frames,
	// each a header, its payload and a CRC, back to back.
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	size, frames := streamHeaderLen, 0
	var f Frame
	for ; ; frames++ {
		if err := sr.Next(&f); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		size += frameHeaderLen + len(f.Payload) + 4
	}
	if frames != 3 || size != buf.Len() {
		t.Errorf("read %d frames spanning %d bytes, want 3 spanning the buffer's %d", frames, size, buf.Len())
	}
}

func TestStreamStampFrames(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := []EpochStamp{
		{SealNs: 1_000, ShipNs: 1_750},
		{SealNs: 2_000, ShipNs: 2_400},
	}
	for e, st := range want {
		if err := sw.WriteReport(uint64(e), testReport(7, int64(e*1000))); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteStamp(uint64(e), 7, st); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	// The sequential reader surfaces both reports and stamps, interleaved.
	sr, err := NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var stamps []EpochStamp
	var reports int
	var f Frame
	for {
		err := sr.Next(&f)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case FrameReport:
			reports++
		case FrameStamp:
			if f.Host != 7 {
				t.Errorf("stamp host = %d, want 7", f.Host)
			}
			st, err := f.Stamp()
			if err != nil {
				t.Fatal(err)
			}
			stamps = append(stamps, st)
		default:
			t.Errorf("Next surfaced a frame of type %d", f.Type)
		}
	}
	if reports != 2 {
		t.Errorf("saw %d report frames, want 2", reports)
	}
	if !reflect.DeepEqual(stamps, want) {
		t.Errorf("stamps = %+v, want %+v", stamps, want)
	}
	// The batch convenience path decodes the reports and ignores stamps.
	reps, bad, err := ReadStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("ReadStream: %v (bad %d)", err, bad)
	}
	if len(reps) != 2 {
		t.Errorf("ReadStream decoded %d reports, want 2", len(reps))
	}
}

func TestStampCodecErrors(t *testing.T) {
	if _, err := DecodeStamp([]byte{1, 2, 3}); err == nil {
		t.Error("short stamp payload must fail")
	}
	f := Frame{Type: FrameReport}
	if _, err := f.Stamp(); err == nil {
		t.Error("Stamp on a report frame must fail")
	}
	f = Frame{Type: FrameStamp, Version: 9}
	if _, err := f.Stamp(); err == nil {
		t.Error("unknown stamp payload version must fail")
	}
}
