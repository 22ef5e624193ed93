package pcapio

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// fuzzCaptureSeeds builds pcap byte streams covering the format corners:
// both endiannesses, both timestamp magics, empty and multi-record
// captures, truncations at every structural boundary, and garbage.
func fuzzCaptureSeeds(f *testing.F) {
	var ok bytes.Buffer
	w := NewWriter(&ok, 0)
	w.WritePacket(Packet{TimestampNs: 1_000_000_123, Data: []byte{1, 2, 3, 4}, OrigLen: 4})
	w.WritePacket(Packet{TimestampNs: 2_000_000_456, Data: bytes.Repeat([]byte{0xab}, 100), OrigLen: 150})
	w.Flush()
	valid := ok.Bytes()
	f.Add(valid)
	f.Add(valid[:fileHeaderLen])                     // empty capture
	f.Add(valid[:fileHeaderLen+recordHeaderLen-3])   // partial record header
	f.Add(valid[:fileHeaderLen+recordHeaderLen+2])   // truncated record body
	f.Add([]byte(nil))                               // empty input
	f.Add(bytes.Repeat([]byte{0x42}, fileHeaderLen)) // bad magic

	// Big-endian nanosecond header with one record.
	var be bytes.Buffer
	var h [fileHeaderLen]byte
	binary.BigEndian.PutUint32(h[0:4], magicNano)
	binary.BigEndian.PutUint32(h[16:20], 65535)
	binary.BigEndian.PutUint32(h[20:24], LinkTypeEthernet)
	be.Write(h[:])
	var rec [recordHeaderLen]byte
	binary.BigEndian.PutUint32(rec[0:4], 1)
	binary.BigEndian.PutUint32(rec[4:8], 999)
	binary.BigEndian.PutUint32(rec[8:12], 3)
	binary.BigEndian.PutUint32(rec[12:16], 3)
	be.Write(rec[:])
	be.Write([]byte{7, 8, 9})
	f.Add(be.Bytes())

	// Little-endian microsecond magic.
	var micro bytes.Buffer
	binary.LittleEndian.PutUint32(h[0:4], magicMicro)
	binary.LittleEndian.PutUint32(h[16:20], 65535)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
	micro.Write(h[:])
	binary.LittleEndian.PutUint32(rec[0:4], 2)
	binary.LittleEndian.PutUint32(rec[4:8], 500_000)
	binary.LittleEndian.PutUint32(rec[8:12], 2)
	binary.LittleEndian.PutUint32(rec[12:16], 2)
	micro.Write(rec[:])
	micro.Write([]byte{1, 2})
	f.Add(micro.Bytes())

	// Implausible capture length.
	var huge bytes.Buffer
	huge.Write(valid[:fileHeaderLen])
	binary.LittleEndian.PutUint32(rec[8:12], 1<<30)
	huge.Write(rec[:])
	f.Add(huge.Bytes())
}

// FuzzReader differentially fuzzes the batch reader against the
// record-at-a-time reader: identical packet sequences, identical
// termination, and neither may panic, whatever the input bytes.
func FuzzReader(f *testing.F) {
	fuzzCaptureSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		legacyRd, legacyErr := NewReader(bytes.NewReader(raw))
		batchRd, batchErr := NewReader(bytes.NewReader(raw))
		if (legacyErr == nil) != (batchErr == nil) {
			t.Fatalf("NewReader divergence: %v vs %v", legacyErr, batchErr)
		}
		if legacyErr != nil {
			return
		}
		defer legacyRd.Close()
		defer batchRd.Close()

		var legacy []Packet
		var legacyEnd error
		for {
			p, err := legacyRd.ReadPacket()
			if err != nil {
				legacyEnd = err
				break
			}
			legacy = append(legacy, p)
		}

		var batch Batch
		var got []Packet
		var batchEnd error
		for {
			n, err := batchRd.ReadBatch(&batch, 7) // odd cap exercises boundaries
			for _, p := range batch.Pkts[:n] {
				got = append(got, Packet{
					TimestampNs: p.TimestampNs,
					Data:        append([]byte(nil), p.Data...),
					OrigLen:     p.OrigLen,
				})
			}
			if err != nil {
				batchEnd = err
				break
			}
		}

		if len(legacy) != len(got) {
			t.Fatalf("packet count divergence: legacy %d, batch %d", len(legacy), len(got))
		}
		for i := range legacy {
			if legacy[i].TimestampNs != got[i].TimestampNs ||
				legacy[i].OrigLen != got[i].OrigLen ||
				!bytes.Equal(legacy[i].Data, got[i].Data) {
				t.Fatalf("packet %d divergence: %+v vs %+v", i, legacy[i], got[i])
			}
		}
		if (legacyEnd == io.EOF) != (batchEnd == io.EOF) {
			t.Fatalf("termination divergence: legacy %v, batch %v", legacyEnd, batchEnd)
		}
	})
}

// FuzzReadAll checks the compact-arena drain agrees with the incremental
// reader and never panics.
func FuzzReadAll(f *testing.F) {
	fuzzCaptureSeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		rd, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		defer rd.Close()
		all, allErr := rd.ReadAll()

		ref, err := NewReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		var want []Packet
		var wantErr error
		for {
			p, err := ref.ReadPacket()
			if err != nil {
				if err != io.EOF {
					wantErr = err
				}
				break
			}
			want = append(want, p)
		}
		if (allErr == nil) != (wantErr == nil) {
			t.Fatalf("error divergence: ReadAll %v, ReadPacket %v", allErr, wantErr)
		}
		if len(all) != len(want) {
			t.Fatalf("count divergence: ReadAll %d, ReadPacket %d", len(all), len(want))
		}
		for i := range want {
			if all[i].TimestampNs != want[i].TimestampNs || !bytes.Equal(all[i].Data, want[i].Data) {
				t.Fatalf("packet %d divergence", i)
			}
		}
	})
}
