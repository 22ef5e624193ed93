package packet

import (
	"bytes"
	"encoding/binary"
	"testing"

	"umon/internal/flowkey"
)

func testMirrored(psn uint32, ce bool) *Mirrored {
	return &Mirrored{
		VLANID:      0x085,
		TimestampNs: 123_456_789,
		Flow: flowkey.Key{
			SrcIP: 0x0a000101, DstIP: 0x0a000201,
			SrcPort: 9000, DstPort: 4791, Proto: flowkey.ProtoUDP,
		},
		PSN:     psn & 0xffffff,
		CE:      ce,
		OrigLen: 1058,
	}
}

// TestDecodeMirrorIntoMatchesDecodeMirror checks the zero-alloc decoder
// produces the exact struct the allocating reference decoder does, and
// the one encoded, with and without IPv4 options.
func TestDecodeMirrorIntoMatchesDecodeMirror(t *testing.T) {
	for _, m := range []*Mirrored{
		testMirrored(0xabcd, true),
		testMirrored(0, false),
		testMirrored(0xffffff, true),
	} {
		for ihl, wire := range map[int][]byte{5: EncodeMirror(m), 6: optionsMirror(m)} {
			want, err := DecodeMirror(wire)
			if err != nil {
				t.Fatal(err)
			}
			var got Mirrored
			if err := DecodeMirrorInto(wire, &got); err != nil {
				t.Fatal(err)
			}
			if got != *want || got != *m {
				t.Errorf("IHL %d: DecodeMirrorInto = %+v, reference %+v, encoded %+v", ihl, got, *want, *m)
			}
		}
	}
}

// TestDecodeMirrorIntoNonRoCE checks the BTH is skipped (PSN 0) when the
// inner UDP destination is not the RoCEv2 port, matching DecodeMirror.
func TestDecodeMirrorIntoNonRoCE(t *testing.T) {
	m := testMirrored(0x777, true)
	m.Flow.DstPort = 8080
	wire := EncodeMirror(m)
	want, err := DecodeMirror(wire)
	if err != nil {
		t.Fatal(err)
	}
	var got Mirrored
	if err := DecodeMirrorInto(wire, &got); err != nil {
		t.Fatal(err)
	}
	if got != *want {
		t.Errorf("non-RoCE DecodeMirrorInto = %+v, want %+v", got, *want)
	}
	if got.PSN != 0 {
		t.Errorf("PSN without BTH = %d, want 0", got.PSN)
	}
}

// TestParseMirrorViewRejectsMalformed mutates a valid packet in every
// interesting way and checks DecodeMirrorInto and the reference decoder
// agree on accept/reject, and on the error.
func TestParseMirrorViewRejectsMalformed(t *testing.T) {
	valid := EncodeMirror(testMirrored(5, true))
	mutate := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), valid...))
		_, refErr := DecodeMirror(b)
		var m Mirrored
		err := DecodeMirrorInto(b, &m)
		if (refErr == nil) != (err == nil) || err != nil && err.Error() != refErr.Error() {
			t.Errorf("%s: reference err %v, DecodeMirrorInto err %v", name, refErr, err)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	for cut := 1; cut < len(valid); cut++ {
		mutate("truncated", func(b []byte) []byte { return b[:len(b)-cut] })
	}
	mutate("no vlan", func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[12:14], EtherTypeIPv4)
		return b
	})
	mutate("inner not ip", func(b []byte) []byte {
		binary.BigEndian.PutUint16(b[16:18], 0x86dd)
		return b
	})
	mutate("ipv6 version", func(b []byte) []byte { b[18] = 0x65; return b })
	mutate("ihl too small", func(b []byte) []byte { b[18] = 0x44; return b })
	mutate("ihl beyond buffer", func(b []byte) []byte { b[18] = 0x4f; return b })
	mutate("checksum", func(b []byte) []byte { b[28] ^= 0xff; return b })
	mutate("not udp", func(b []byte) []byte {
		b[27] = 6 // TCP; breaks the checksum too, still must reject
		return b
	})
}

// optionsMirror builds m's wire form with the reference encoder's header
// structs, but with a 4-byte option in its IPv4 header (IHL 6) and the
// header checksum taken by rfc1071.
func optionsMirror(m *Mirrored) []byte {
	ecn := uint8(ECNECT0)
	if m.CE {
		ecn = ECNCE
	}
	eth := Ethernet{EtherType: EtherTypeVLAN}
	vlan := VLAN{ID: m.VLANID, EtherType: EtherTypeIPv4}
	ip := IPv4{
		ECN: ecn, TotalLen: uint16(m.OrigLen - EthernetLen - 4), TTL: 63,
		Protocol: IPProtoUDP, SrcIP: m.Flow.SrcIP, DstIP: m.Flow.DstIP,
	}
	b := vlan.Marshal(eth.Marshal(nil))
	b = append(ip.Marshal(b), 0x94, 0x04, 0, 0) // router alert
	hdr := b[mirrorIPOff:]
	hdr[0] = 0x46
	binary.BigEndian.PutUint16(hdr[10:12], 0)
	binary.BigEndian.PutUint16(hdr[10:12], rfc1071(hdr))
	udp := UDP{SrcPort: m.Flow.SrcPort, DstPort: m.Flow.DstPort, Length: ip.TotalLen - 24}
	bth := BTH{Opcode: 0x0a, PSN: m.PSN}
	b = bth.Marshal(udp.Marshal(b))
	return binary.BigEndian.AppendUint64(b, uint64(m.TimestampNs))
}

// TestAppendMirrorReusesBuffer checks AppendMirror writes into the given
// scratch without allocating and EncodeMirror equals the appended form.
func TestAppendMirrorReusesBuffer(t *testing.T) {
	m := testMirrored(42, true)
	want := EncodeMirror(m)
	scratch := make([]byte, 0, MirrorEncodedLen)
	got := AppendMirror(scratch[:0], m)
	if !bytes.Equal(got, want) {
		t.Error("AppendMirror differs from EncodeMirror")
	}
	if &got[0] != &scratch[:1][0] {
		t.Error("AppendMirror reallocated despite sufficient capacity")
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = AppendMirror(scratch[:0], m)
	})
	if allocs != 0 {
		t.Errorf("AppendMirror allocs = %v, want 0", allocs)
	}
}

// TestDecodeMirrorIntoZeroAlloc locks in the 0-alloc decode contract.
func TestDecodeMirrorIntoZeroAlloc(t *testing.T) {
	wire := EncodeMirror(testMirrored(7, true))
	var m Mirrored
	allocs := testing.AllocsPerRun(100, func() {
		if err := DecodeMirrorInto(wire, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("DecodeMirrorInto allocs = %v, want 0", allocs)
	}
}
