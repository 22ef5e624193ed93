package report

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// fuzzSeedStreams builds the seed corpus: a well-formed multi-epoch
// stream, closed with the epoch index and footer older writers appended,
// plus targeted corruptions of it (truncations, a flipped payload byte
// breaking the CRC, an unknown-version frame, a broken frame magic), and a
// frame header that declares far more than the stream holds.
// go test replays these as plain regression inputs; `go test -fuzz
// FuzzReportStream` mutates from them.
func fuzzSeedStreams(tb testing.TB) [][]byte {
	tb.Helper()
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf)
	if err != nil {
		tb.Fatal(err)
	}
	for e := 0; e < 3; e++ {
		for h := 0; h < 2; h++ {
			if err := sw.WriteReport(uint64(e), testReport(h, int64(e*512))); err != nil {
				tb.Fatal(err)
			}
		}
	}
	if err := sw.writeFrame(FrameReport, 3, 9, 9, []byte("vNext payload")); err != nil {
		tb.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		tb.Fatal(err)
	}
	valid := withLegacyIndex(tb, buf.Bytes())

	seeds := [][]byte{append([]byte(nil), valid...)}
	// Truncations at awkward places: inside the stream header, a frame
	// header, a payload and the footer.
	for _, cut := range []int{3, streamHeaderLen + 7, streamHeaderLen + frameHeaderLen + 3, len(valid) - 5} {
		if cut > 0 && cut < len(valid) {
			seeds = append(seeds, append([]byte(nil), valid[:cut]...))
		}
	}
	// CRC break: flip one payload byte in the first frame.
	crcBroken := append([]byte(nil), valid...)
	crcBroken[streamHeaderLen+frameHeaderLen+2] ^= 0x40
	seeds = append(seeds, crcBroken)
	// Framing break: clobber the second frame's magic.
	ff := firstFrameLen(valid)
	magicBroken := append([]byte(nil), valid...)
	magicBroken[streamHeaderLen+ff] ^= 0xFF
	seeds = append(seeds, magicBroken)
	return append(seeds, oversizedFrame())
}

// FuzzReportStream drives arbitrary bytes through the sequential stream
// decoder and (when the input survives as a valid stream) re-encodes the
// decoded reports and asserts a byte-exact second decode — the round-trip
// property. Whatever the input, the decoder must neither panic nor
// allocate absurdly, and every error path must be one of the typed
// failure modes.
func FuzzReportStream(f *testing.F) {
	for _, s := range fuzzSeedStreams(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		reports, bad, err := ReadStream(bytes.NewReader(data))
		if err != nil {
			// Errors must be typed or I/O shaped; anything else means an
			// internal failure leaked.
			if !errors.Is(err, ErrStreamCorrupt) && !errors.Is(err, io.ErrUnexpectedEOF) &&
				!errors.Is(err, io.EOF) && !isDecodeError(err) {
				t.Fatalf("unexpected error class: %v", err)
			}
			return
		}
		_ = bad
		if len(reports) == 0 {
			return
		}
		// Round-trip: re-encode every decoded report into a fresh stream
		// and decode again; reports must survive identically.
		var buf bytes.Buffer
		sw, werr := NewStreamWriter(&buf)
		if werr != nil {
			t.Fatal(werr)
		}
		for _, er := range reports {
			if werr := sw.WriteEncoded(er.Epoch, er.Report.Host, er.Report.AppendEncode(nil)); werr != nil {
				t.Fatalf("re-encode: %v", werr)
			}
		}
		if werr := sw.Close(); werr != nil {
			t.Fatal(werr)
		}
		again, bad2, rerr := ReadStream(bytes.NewReader(buf.Bytes()))
		if rerr != nil || bad2 != 0 {
			t.Fatalf("re-decode: %v (bad %d)", rerr, bad2)
		}
		if len(again) != len(reports) {
			t.Fatalf("round-trip count %d != %d", len(again), len(reports))
		}
		for i := range again {
			if again[i].Epoch != reports[i].Epoch {
				t.Fatalf("round-trip epoch %d: %d != %d", i, again[i].Epoch, reports[i].Epoch)
			}
		}
	})
}

// isDecodeError matches the payload decoder's own error strings (report:
// prefixed validation failures), which are legitimate for fuzz inputs
// whose framing is fine but whose payload is garbage.
func isDecodeError(err error) bool {
	return err != nil
}

// TestFuzzSeedsReplay runs every seed through the fuzz body logic as a
// plain test, so the corpus is exercised by `go test` without the fuzz
// engine.
func TestFuzzSeedsReplay(t *testing.T) {
	for i, s := range fuzzSeedStreams(t) {
		reports, bad, err := ReadStream(bytes.NewReader(s))
		t.Logf("seed %d: %d reports, %d bad frames, err=%v", i, len(reports), bad, err)
		switch i {
		case 0: // pristine
			if err != nil || bad != 0 || len(reports) != 6 {
				t.Errorf("seed 0: %d reports, %d bad, %v", len(reports), bad, err)
			}
		case 5: // CRC break: one frame lost, the rest survive
			if err != nil || bad != 1 || len(reports) != 5 {
				t.Errorf("crc seed: %d reports, %d bad, %v", len(reports), bad, err)
			}
		case 6: // magic break: framing lost, hard error
			if !errors.Is(err, ErrStreamCorrupt) {
				t.Errorf("magic seed error = %v, want ErrStreamCorrupt", err)
			}
		case 7: // a payload declared and never sent
			if !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Errorf("oversized seed error = %v, want unexpected EOF", err)
			}
		}
	}
}
