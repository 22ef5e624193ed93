package packet

import (
	"encoding/binary"
	"fmt"

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
	mirrorIPOff: 0x45, mirrorIPOff + 8: 63, mirrorIPOff + 9: IPProtoUDP,
	mirrorBTHOff: 0x0a, mirrorBTHOff + 1: 0x40,
}

// Header offsets inside an encoded mirror packet. The UDP and BTH offsets
// hold for the options-free IPv4 header AppendMirror writes.
const (
	mirrorIPOff  = EthernetLen + VLANLen
	mirrorUDPOff = mirrorIPOff + IPv4Len
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
	b[mirrorIPOff+1] = byte(ecn)
	binary.BigEndian.PutUint16(b[mirrorIPOff+2:], totalLen)
	binary.BigEndian.PutUint16(b[mirrorIPOff+10:], ^uint16(sum))
	binary.BigEndian.PutUint32(b[mirrorIPOff+12:], src)
	binary.BigEndian.PutUint32(b[mirrorIPOff+16:], dstIP)
	binary.BigEndian.PutUint16(b[mirrorUDPOff:], m.Flow.SrcPort)
	binary.BigEndian.PutUint16(b[mirrorUDPOff+2:], m.Flow.DstPort)
	binary.BigEndian.PutUint16(b[mirrorUDPOff+4:], totalLen-IPv4Len)
	b[mirrorBTHOff+9] = byte(m.PSN >> 16)
	b[mirrorBTHOff+10] = byte(m.PSN >> 8)
	b[mirrorBTHOff+11] = byte(m.PSN)
	binary.BigEndian.PutUint64(b[mirrorBTHOff+BTHLen:], uint64(m.TimestampNs))
	return dst
}

// DecodeMirrorInto parses a mirrored event packet into out without
// allocating; out is left partially written on error. It never panics on
// malformed input.
//
// Layout: Ethernet (14) · 802.1Q VLAN (4) · IPv4 (IHL ≥ 20, options
// skipped) · UDP (8) at the IHL offset · RoCEv2 BTH (12, when the UDP
// destination port is 4791) · the 8-byte switch timestamp trailer. One
// pass checks the framing — truncation, VLAN encapsulation, IPv4
// version/IHL/checksum, inner protocol — and reads the fields.
func DecodeMirrorInto(b []byte, out *Mirrored) error {
	if len(b) < EthernetLen {
		return malformed("ethernet header truncated (%d bytes)", len(b))
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeVLAN {
		return malformed("mirrored packet lacks VLAN tag (ethertype %#04x)", et)
	}
	if len(b) < mirrorIPOff {
		return malformed("vlan tag truncated (%d bytes)", len(b)-EthernetLen)
	}
	if et := binary.BigEndian.Uint16(b[16:18]); et != EtherTypeIPv4 {
		return malformed("unsupported inner ethertype %#04x", et)
	}
	if len(b)-mirrorIPOff < mirrorTrailerLen {
		return malformed("missing mirror timestamp trailer")
	}
	trailer := b[len(b)-mirrorTrailerLen:]
	ip := b[mirrorIPOff : len(b)-mirrorTrailerLen]
	if len(ip) < IPv4Len {
		return malformed("ipv4 header truncated (%d bytes)", len(ip))
	}
	if ver := ip[0] >> 4; ver != 4 {
		return malformed("not IPv4 (version %d)", ver)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4Len || len(ip) < ihl {
		return malformed("bad IHL %d", ihl)
	}
	if ipChecksum(ip[:ihl]) != 0 {
		return malformed("ipv4 checksum mismatch")
	}
	if proto := ip[9]; proto != IPProtoUDP {
		return malformed("unsupported inner protocol %d", proto)
	}
	udp := ip[ihl:]
	if len(udp) < UDPLen {
		return malformed("udp header truncated (%d bytes)", len(udp))
	}
	dstPort := binary.BigEndian.Uint16(udp[2:4])
	psn := uint32(0)
	if dstPort == UDPPortRoCE {
		bth := udp[UDPLen:]
		if len(bth) < BTHLen {
			return malformed("BTH truncated (%d bytes)", len(bth))
		}
		psn = uint32(bth[9])<<16 | uint32(bth[10])<<8 | uint32(bth[11])
	}
	out.VLANID = binary.BigEndian.Uint16(b[EthernetLen:]) & 0x0fff
	out.TimestampNs = int64(binary.BigEndian.Uint64(trailer))
	// Field by field: a composite literal is built on the stack and copied
	// with one wide load, which stalls on the narrow stores before it.
	out.Flow.SrcIP = binary.BigEndian.Uint32(ip[12:16])
	out.Flow.DstIP = binary.BigEndian.Uint32(ip[16:20])
	out.Flow.SrcPort = binary.BigEndian.Uint16(udp[0:2])
	out.Flow.DstPort = dstPort
	out.Flow.Proto = flowkey.ProtoUDP
	out.PSN = psn
	out.CE = ip[1]&0x3 == ECNCE
	out.OrigLen = int(binary.BigEndian.Uint16(ip[2:4])) + EthernetLen + 4
	return nil
}

// malformed builds DecodeMirrorInto's errors out of line, so its accepting
// path does no formatting.
//
//go:noinline
func malformed(format string, args ...any) error {
	return fmt.Errorf("packet: "+format, args...)
}
