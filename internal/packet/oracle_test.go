package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"umon/internal/flowkey"
)

// The reference mirror codec: the encoder builds each header struct and
// marshals it field by field, the decoder unmarshals them into a fresh
// struct. AppendMirror and DecodeMirrorInto are compared against these.

// VLAN is an 802.1Q tag. µMon distinguishes µEvents on different ports by
// attaching different VLAN IDs to the mirrored copies (§5).
type VLAN struct {
	Priority  uint8  // PCP, 3 bits
	ID        uint16 // VID, 12 bits
	EtherType uint16 // encapsulated ethertype
}

// Marshal appends the wire form to b.
func (h *VLAN) Marshal(b []byte) []byte {
	tci := uint16(h.Priority&0x7)<<13 | h.ID&0x0fff
	b = binary.BigEndian.AppendUint16(b, tci)
	return binary.BigEndian.AppendUint16(b, h.EtherType)
}

// Unmarshal parses the tag and returns the remaining bytes.
func (h *VLAN) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < VLANLen {
		return nil, fmt.Errorf("packet: vlan tag truncated (%d bytes)", len(b))
	}
	tci := binary.BigEndian.Uint16(b[0:2])
	h.Priority = uint8(tci >> 13)
	h.ID = tci & 0x0fff
	h.EtherType = binary.BigEndian.Uint16(b[2:4])
	return b[VLANLen:], nil
}

// Unmarshal parses the header and returns the remaining bytes.
func (h *Ethernet) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < EthernetLen {
		return nil, fmt.Errorf("packet: ethernet header truncated (%d bytes)", len(b))
	}
	copy(h.Dst[:], b[0:6])
	copy(h.Src[:], b[6:12])
	h.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[EthernetLen:], nil
}

// Unmarshal parses the header, verifies the checksum and returns the
// remaining bytes.
func (h *IPv4) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < IPv4Len {
		return nil, fmt.Errorf("packet: ipv4 header truncated (%d bytes)", len(b))
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("packet: not IPv4 (version %d)", v)
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < IPv4Len || len(b) < ihl {
		return nil, fmt.Errorf("packet: bad IHL %d", ihl)
	}
	if ipChecksum(b[:ihl]) != 0 {
		return nil, fmt.Errorf("packet: ipv4 checksum mismatch")
	}
	h.DSCP = b[1] >> 2
	h.ECN = b[1] & 0x3
	h.TotalLen = binary.BigEndian.Uint16(b[2:4])
	h.TTL = b[8]
	h.Protocol = b[9]
	h.SrcIP = binary.BigEndian.Uint32(b[12:16])
	h.DstIP = binary.BigEndian.Uint32(b[16:20])
	return b[ihl:], nil
}

// Unmarshal parses the header and returns the remaining bytes.
func (h *UDP) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < UDPLen {
		return nil, fmt.Errorf("packet: udp header truncated (%d bytes)", len(b))
	}
	h.SrcPort = binary.BigEndian.Uint16(b[0:2])
	h.DstPort = binary.BigEndian.Uint16(b[2:4])
	h.Length = binary.BigEndian.Uint16(b[4:6])
	return b[UDPLen:], nil
}

// Unmarshal parses the header and returns the remaining bytes.
func (h *BTH) Unmarshal(b []byte) ([]byte, error) {
	if len(b) < BTHLen {
		return nil, fmt.Errorf("packet: BTH truncated (%d bytes)", len(b))
	}
	h.Opcode = b[0]
	h.PadCnt = b[1] >> 4 & 0x3
	h.Version = b[1] & 0xf
	h.PKey = binary.BigEndian.Uint16(b[2:4])
	h.DestQP = uint32(b[5])<<16 | uint32(b[6])<<8 | uint32(b[7])
	h.AckReq = b[8]&0x80 != 0
	h.PSN = uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
	return b[BTHLen:], nil
}

// EncodeMirror is the reference encoder on a fresh buffer.
func EncodeMirror(m *Mirrored) []byte {
	return appendMirrorMarshal(make([]byte, 0, MirrorEncodedLen), m)
}

func appendMirrorMarshal(dst []byte, m *Mirrored) []byte {
	b := dst
	eth := Ethernet{EtherType: EtherTypeVLAN}
	b = eth.Marshal(b)
	vlan := VLAN{ID: m.VLANID, EtherType: EtherTypeIPv4}
	b = vlan.Marshal(b)
	ecn := uint8(ECNECT0)
	if m.CE {
		ecn = ECNCE
	}
	ip := IPv4{
		ECN:      ecn,
		TotalLen: uint16(IPv4Len + UDPLen + BTHLen),
		TTL:      63,
		Protocol: IPProtoUDP,
		SrcIP:    m.Flow.SrcIP,
		DstIP:    m.Flow.DstIP,
	}
	if m.OrigLen > 0 {
		orig := m.OrigLen - EthernetLen - 4 // strip Ethernet+FCS
		if orig > 0 && orig <= 0xffff {
			ip.TotalLen = uint16(orig)
		}
	}
	b = ip.Marshal(b)
	udp := UDP{SrcPort: m.Flow.SrcPort, DstPort: m.Flow.DstPort, Length: ip.TotalLen - IPv4Len}
	b = udp.Marshal(b)
	bth := BTH{Opcode: 0x0a /* RC SEND only */, PSN: m.PSN & 0xffffff}
	b = bth.Marshal(b)
	return binary.BigEndian.AppendUint64(b, uint64(m.TimestampNs))
}

// DecodeMirror is the reference decoder.
func DecodeMirror(b []byte) (*Mirrored, error) {
	var eth Ethernet
	rest, err := eth.Unmarshal(b)
	if err != nil {
		return nil, err
	}
	if eth.EtherType != EtherTypeVLAN {
		return nil, fmt.Errorf("packet: mirrored packet lacks VLAN tag (ethertype %#04x)", eth.EtherType)
	}
	var vlan VLAN
	if rest, err = vlan.Unmarshal(rest); err != nil {
		return nil, err
	}
	if vlan.EtherType != EtherTypeIPv4 {
		return nil, fmt.Errorf("packet: unsupported inner ethertype %#04x", vlan.EtherType)
	}
	if len(rest) < mirrorTrailerLen {
		return nil, fmt.Errorf("packet: missing mirror timestamp trailer")
	}
	trailer := rest[len(rest)-mirrorTrailerLen:]
	rest = rest[:len(rest)-mirrorTrailerLen]

	var ip IPv4
	if rest, err = ip.Unmarshal(rest); err != nil {
		return nil, err
	}
	if ip.Protocol != IPProtoUDP {
		return nil, fmt.Errorf("packet: unsupported inner protocol %d", ip.Protocol)
	}
	var udp UDP
	if rest, err = udp.Unmarshal(rest); err != nil {
		return nil, err
	}
	var bth BTH
	if udp.DstPort == UDPPortRoCE {
		if _, err = bth.Unmarshal(rest); err != nil {
			return nil, err
		}
	}
	return &Mirrored{
		VLANID:      vlan.ID,
		TimestampNs: int64(binary.BigEndian.Uint64(trailer)),
		Flow: flowkey.Key{
			SrcIP: ip.SrcIP, DstIP: ip.DstIP,
			SrcPort: udp.SrcPort, DstPort: udp.DstPort,
			Proto: flowkey.ProtoUDP,
		},
		PSN:     bth.PSN,
		CE:      ip.ECN == ECNCE,
		OrigLen: int(ip.TotalLen) + EthernetLen + 4,
	}, nil
}

// TestAppendMirrorMatchesMarshalOracle checks the in-place encoder is
// byte-identical to the struct-Marshal one over seeded random records,
// including the inputs the encoder clamps or masks: OrigLen ≤ 0, under the
// Ethernet overhead and above 65,535, VLAN ids above 12 bits, PSNs above
// 24 bits. Every encoding must also decode back through DecodeMirrorInto
// to what the reference decoder reads.
func TestAppendMirrorMatchesMarshalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	origLens := []int{0, -1, -1 << 63, 1, 17, 18, 19, 38, 64, 1058, 0xffff + 18, 0xffff + 19, 1 << 20, 1<<63 - 1}
	var got, want []byte
	for i := 0; i < 200_000; i++ {
		m := Mirrored{
			VLANID:      uint16(rng.Uint32()),
			TimestampNs: int64(rng.Uint64()),
			Flow: flowkey.Key{
				SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
				SrcPort: uint16(rng.Uint32()), DstPort: uint16(rng.Uint32()),
				Proto: flowkey.ProtoUDP,
			},
			PSN:     rng.Uint32(),
			CE:      rng.Intn(2) == 0,
			OrigLen: rng.Intn(70_000) - 100,
		}
		switch i % 4 {
		case 0:
			m.OrigLen = origLens[i/4%len(origLens)]
		case 1:
			m.Flow.DstPort = UDPPortRoCE
			// Addresses near the ends exercise the checksum's carry folds.
			m.Flow.SrcIP |= 0xffff0000
			m.Flow.DstIP |= 0x0000ffff
		}
		got = AppendMirror(got[:0], &m)
		want = appendMirrorMarshal(want[:0], &m)
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d %+v:\n got %x\nwant %x", i, m, got, want)
		}
		ref, err := DecodeMirror(got)
		if err != nil {
			t.Fatalf("record %d: reference decode: %v", i, err)
		}
		var dec Mirrored
		if err := DecodeMirrorInto(got, &dec); err != nil || dec != *ref {
			t.Fatalf("record %d: DecodeMirrorInto = %+v, %v; reference %+v", i, dec, err, *ref)
		}
	}
	// Appending after existing content leaves it alone.
	prefix := []byte{1, 2, 3}
	out := AppendMirror(prefix, testMirrored(9, true))
	if !bytes.Equal(out[:3], prefix) || !bytes.Equal(out[3:], EncodeMirror(testMirrored(9, true))) {
		t.Error("AppendMirror disturbed or misplaced bytes after a non-empty dst")
	}
}
