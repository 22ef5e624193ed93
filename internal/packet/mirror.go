package packet

import (
	"encoding/binary"

	"umon/internal/flowkey"
)

// Mirrored is a parsed remote-mirrored event packet: the original RoCEv2
// headers wrapped in the mirror VLAN tag, preceded by the switch's local
// timestamp trailer (§5/§6.1: "switches can configure the mirroring port to
// add a local timestamp to each mirrored packet").
type Mirrored struct {
	// VLANID encodes the observation point: µMon assigns one VLAN id per
	// mirrored switch port.
	VLANID uint16
	// TimestampNs is the switch-local timestamp.
	TimestampNs int64
	// Flow is the original packet's 5-tuple.
	Flow flowkey.Key
	// PSN is the RoCEv2 packet sequence number.
	PSN uint32
	// CE reports whether the packet carried the congestion-experienced
	// codepoint (it always should, given the ACL match).
	CE bool
	// OrigLen is the original packet's IP total length + Ethernet overhead.
	OrigLen int
}

// mirrorTrailerLen is the 8-byte timestamp trailer appended by the mirror
// port.
const mirrorTrailerLen = 8

// MirrorEncodedLen is the wire size of an encoded mirror packet; useful
// for pre-sizing append destinations.
const MirrorEncodedLen = EthernetLen + VLANLen + IPv4Len + UDPLen + BTHLen + mirrorTrailerLen

// mirrorTemplate holds the bytes every encoded mirror packet shares: zero
// MACs, the VLAN and IPv4 ethertypes, version/IHL, TTL 63, protocol UDP,
// the RC SEND-only opcode and the BTH's M bit.
var mirrorTemplate = [MirrorEncodedLen]byte{
	12: EtherTypeVLAN >> 8, 13: EtherTypeVLAN & 0xff,
	16: EtherTypeIPv4 >> 8, 17: EtherTypeIPv4 & 0xff,
	viewIPOff: 0x45, viewIPOff + 8: 63, viewIPOff + 9: IPProtoUDP,
	mirrorBTHOff: 0x0a, mirrorBTHOff + 1: 0x40,
}

// Header offsets inside an encoded mirror packet.
const (
	mirrorUDPOff = viewIPOff + IPv4Len
	mirrorBTHOff = mirrorUDPOff + UDPLen
	// mirrorIPSum is the ones-complement sum of the IPv4 header words that
	// never change: version/IHL/DSCP and TTL/protocol.
	mirrorIPSum = 0x4500 + 63<<8 + IPProtoUDP
)

// AppendMirror appends the wire form of one mirrored event packet to dst
// and returns the extended slice: an Ethernet+VLAN encapsulation of the
// original headers (truncated to headers only, as mirror sessions do) plus
// the timestamp trailer. dst grows once, by the template; the varying
// fields are stored at fixed offsets and the IPv4 checksum is summed from
// them and mirrorIPSum. With a pre-sized dst it does not allocate, so
// emitters can reuse one scratch buffer across packets.
func AppendMirror(dst []byte, m *Mirrored) []byte {
	n := len(dst)
	dst = append(dst, mirrorTemplate[:]...)
	b := dst[n : n+MirrorEncodedLen]
	ecn := uint32(ECNECT0)
	if m.CE {
		ecn = ECNCE
	}
	totalLen := uint16(IPv4Len + UDPLen + BTHLen)
	if orig := m.OrigLen - EthernetLen - 4; orig > 0 && orig <= 0xffff { // strip Ethernet+FCS
		totalLen = uint16(orig)
	}
	src, dstIP := m.Flow.SrcIP, m.Flow.DstIP
	sum := mirrorIPSum + ecn + uint32(totalLen) + src>>16 + src&0xffff + dstIP>>16 + dstIP&0xffff
	sum = sum&0xffff + sum>>16
	sum = sum&0xffff + sum>>16
	binary.BigEndian.PutUint16(b[EthernetLen:], m.VLANID&0x0fff)
	b[viewIPOff+1] = byte(ecn)
	binary.BigEndian.PutUint16(b[viewIPOff+2:], totalLen)
	binary.BigEndian.PutUint16(b[viewIPOff+10:], ^uint16(sum))
	binary.BigEndian.PutUint32(b[viewIPOff+12:], src)
	binary.BigEndian.PutUint32(b[viewIPOff+16:], dstIP)
	binary.BigEndian.PutUint16(b[mirrorUDPOff:], m.Flow.SrcPort)
	binary.BigEndian.PutUint16(b[mirrorUDPOff+2:], m.Flow.DstPort)
	binary.BigEndian.PutUint16(b[mirrorUDPOff+4:], totalLen-IPv4Len)
	b[mirrorBTHOff+9] = byte(m.PSN >> 16)
	b[mirrorBTHOff+10] = byte(m.PSN >> 8)
	b[mirrorBTHOff+11] = byte(m.PSN)
	binary.BigEndian.PutUint64(b[mirrorBTHOff+BTHLen:], uint64(m.TimestampNs))
	return dst
}
