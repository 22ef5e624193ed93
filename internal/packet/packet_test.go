package packet

import (
	"math/rand"
	"testing"
	"testing/quick"

	"umon/internal/flowkey"
)

func TestEthernetRoundTrip(t *testing.T) {
	h := Ethernet{
		Dst:       [6]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
		Src:       [6]byte{0x02, 0, 0, 0, 0, 1},
		EtherType: EtherTypeIPv4,
	}
	b := h.Marshal(nil)
	if len(b) != EthernetLen {
		t.Fatalf("len = %d, want %d", len(b), EthernetLen)
	}
	var got Ethernet
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
	if _, err := got.Unmarshal(b[:5]); err == nil {
		t.Error("truncated header must error")
	}
}

func TestVLANRoundTrip(t *testing.T) {
	f := func(prio uint8, id uint16) bool {
		h := VLAN{Priority: prio & 0x7, ID: id & 0x0fff, EtherType: EtherTypeIPv4}
		var got VLAN
		rest, err := got.Unmarshal(h.Marshal(nil))
		return err == nil && len(rest) == 0 && got == h
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	var v VLAN
	if _, err := v.Unmarshal([]byte{1}); err == nil {
		t.Error("truncated tag must error")
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	h := IPv4{
		DSCP: 10, ECN: ECNCE, TotalLen: 1028, TTL: 64,
		Protocol: IPProtoUDP, SrcIP: 0x0a000101, DstIP: 0x0a000201,
	}
	b := h.Marshal(nil)
	var got IPv4
	rest, err := got.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
	// Corrupt a byte: checksum must catch it.
	b[8] ^= 0xff
	if _, err := got.Unmarshal(b); err == nil {
		t.Error("corrupted header must fail checksum")
	}
	// Non-IPv4 version.
	b[8] ^= 0xff
	b[0] = 0x65
	if _, err := got.Unmarshal(b); err == nil {
		t.Error("IPv6 version must be rejected")
	}
	if _, err := got.Unmarshal(b[:10]); err == nil {
		t.Error("truncated header must error")
	}
}

func TestUDPRoundTrip(t *testing.T) {
	h := UDP{SrcPort: 49152, DstPort: UDPPortRoCE, Length: 1008}
	var got UDP
	rest, err := got.Unmarshal(h.Marshal(nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 || got != h {
		t.Errorf("round trip: %+v != %+v", got, h)
	}
}

func TestBTHRoundTrip(t *testing.T) {
	f := func(op uint8, qp, psn uint32, ack bool) bool {
		h := BTH{Opcode: op, DestQP: qp & 0xffffff, AckReq: ack, PSN: psn & 0xffffff}
		var got BTH
		rest, err := got.Unmarshal(h.Marshal(nil))
		return err == nil && len(rest) == 0 &&
			got.Opcode == h.Opcode && got.DestQP == h.DestQP &&
			got.AckReq == h.AckReq && got.PSN == h.PSN
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMirrorRoundTrip(t *testing.T) {
	m := &Mirrored{
		VLANID:      137,
		TimestampNs: 123_456_789_000,
		Flow: flowkey.Key{
			SrcIP: 0x0a000101, DstIP: 0x0a000f01,
			SrcPort: 10007, DstPort: UDPPortRoCE, Proto: flowkey.ProtoUDP,
		},
		PSN:     0x00abcdef,
		CE:      true,
		OrigLen: 1080,
	}
	b := EncodeMirror(m)
	got, err := DecodeMirror(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.VLANID != m.VLANID || got.TimestampNs != m.TimestampNs ||
		got.Flow != m.Flow || got.PSN != m.PSN || !got.CE || got.OrigLen != m.OrigLen {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
	}
}

func TestMirrorRejectsNonVLAN(t *testing.T) {
	eth := Ethernet{EtherType: EtherTypeIPv4}
	if _, err := DecodeMirror(eth.Marshal(nil)); err == nil {
		t.Error("untagged packet must be rejected")
	}
	if _, err := DecodeMirror([]byte{1, 2, 3}); err == nil {
		t.Error("garbage must be rejected")
	}
}

func TestMirrorNonCE(t *testing.T) {
	m := &Mirrored{VLANID: 1, Flow: flowkey.Key{SrcIP: 1, DstIP: 2, DstPort: UDPPortRoCE, Proto: 17}}
	got, err := DecodeMirror(EncodeMirror(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.CE {
		t.Error("non-CE packet decoded as CE")
	}
}

func TestIPChecksumOddLength(t *testing.T) {
	// The helper must handle odd-length buffers (used defensively).
	if got := ipChecksum([]byte{0x12}); got != ^uint16(0x1200) {
		t.Errorf("odd checksum = %#04x", got)
	}
}

// rfc1071 is the checksum as RFC 1071 states it: a ones-complement sum of
// 16-bit words, an odd last byte padded with zero, folded and inverted.
func rfc1071(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// TestIPChecksumMatchesRFC1071 checks ipChecksum's 32-bit-word sum
// against rfc1071 over every length from 0 to 60 bytes (every IHL, plus
// odd lengths): random bytes, and all-ones and all-zero runs, which drive
// the carry folds to their ends. The reference decoder takes the checksum
// from ipChecksum too, so differential tests against it cannot catch a
// folding error.
func TestIPChecksumMatchesRFC1071(t *testing.T) {
	rng := rand.New(rand.NewSource(1071))
	b := make([]byte, 60)
	for n := 0; n <= len(b); n++ {
		for trial := 0; trial < 2000; trial++ {
			switch trial {
			case 0, 1:
				for i := range b {
					b[i] = byte(0xff * trial)
				}
			default:
				rng.Read(b)
			}
			if got, want := ipChecksum(b[:n]), rfc1071(b[:n]); got != want {
				t.Fatalf("len %d % x: ipChecksum %#04x, RFC 1071 %#04x", n, b[:n], got, want)
			}
		}
	}
}
