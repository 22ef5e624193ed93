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

// TestDecodeMirrorIntoMatchesDecodeMirror checks the zero-alloc view path
// produces the exact struct the allocating decoder does.
func TestDecodeMirrorIntoMatchesDecodeMirror(t *testing.T) {
	for _, m := range []*Mirrored{
		testMirrored(0xabcd, true),
		testMirrored(0, false),
		testMirrored(0xffffff, true),
	} {
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
			t.Errorf("DecodeMirrorInto = %+v, want %+v", got, *want)
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
// interesting way and checks view parse and legacy decode agree on
// accept/reject.
func TestParseMirrorViewRejectsMalformed(t *testing.T) {
	valid := EncodeMirror(testMirrored(5, true))
	mutate := func(name string, fn func(b []byte) []byte) {
		b := fn(append([]byte(nil), valid...))
		_, legacyErr := DecodeMirror(b)
		_, viewErr := ParseMirrorView(b)
		if (legacyErr == nil) != (viewErr == nil) {
			t.Errorf("%s: legacy err %v, view err %v", name, legacyErr, viewErr)
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

// TestMirrorViewAccessors spot-checks every field accessor against the
// encoder's inputs.
func TestMirrorViewAccessors(t *testing.T) {
	m := testMirrored(0xbeef, true)
	wire := EncodeMirror(m)
	v, err := ParseMirrorView(wire)
	if err != nil {
		t.Fatal(err)
	}
	if v.VLANID() != m.VLANID {
		t.Errorf("VLANID = %d, want %d", v.VLANID(), m.VLANID)
	}
	if v.TimestampNs() != m.TimestampNs {
		t.Errorf("TimestampNs = %d, want %d", v.TimestampNs(), m.TimestampNs)
	}
	if !v.CE() {
		t.Error("CE lost")
	}
	if v.bthOff < 0 {
		t.Error("BTH not detected on RoCE port")
	}
	if v.PSN() != m.PSN {
		t.Errorf("PSN = %#x, want %#x", v.PSN(), m.PSN)
	}
	if v.OrigLen() != m.OrigLen {
		t.Errorf("OrigLen = %d, want %d", v.OrigLen(), m.OrigLen)
	}
	if v.Flow() != m.Flow {
		t.Errorf("Flow = %+v, want %+v", v.Flow(), m.Flow)
	}
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
