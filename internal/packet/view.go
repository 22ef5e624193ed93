package packet

import (
	"encoding/binary"
	"fmt"

	"umon/internal/flowkey"
)

// MirrorView is a zero-copy view of a mirrored event packet: the parse
// validates the framing once and records header offsets into the original
// buffer, so field access is plain indexing with no copies and no
// allocation. The view aliases b and follows its lifetime — for packets
// from pcapio.ReadBatch that means "valid until the next batch refill".
//
// Layout: Ethernet (14) · 802.1Q VLAN (4) · IPv4 (IHL ≥ 20) · UDP (8) ·
// optional RoCEv2 BTH (12, when the UDP destination port is 4791) ·
// trailing 8-byte switch timestamp.
type MirrorView struct {
	b      []byte
	udpOff int // 18 + IHL
	bthOff int // -1 when the inner packet is not RoCEv2
}

const (
	viewVLANOff = EthernetLen
	viewIPOff   = EthernetLen + VLANLen
)

// ParseMirrorView validates b as a mirrored event packet — truncation, VLAN
// encapsulation, IPv4 version/IHL/checksum, inner protocol — and returns
// the view. It never panics on malformed input.
func ParseMirrorView(b []byte) (MirrorView, error) {
	v := MirrorView{b: b, bthOff: -1}
	if len(b) < EthernetLen {
		return v, fmt.Errorf("packet: ethernet header truncated (%d bytes)", len(b))
	}
	if et := binary.BigEndian.Uint16(b[12:14]); et != EtherTypeVLAN {
		return v, fmt.Errorf("packet: mirrored packet lacks VLAN tag (ethertype %#04x)", et)
	}
	if len(b) < viewIPOff {
		return v, fmt.Errorf("packet: vlan tag truncated (%d bytes)", len(b)-viewVLANOff)
	}
	if et := binary.BigEndian.Uint16(b[16:18]); et != EtherTypeIPv4 {
		return v, fmt.Errorf("packet: unsupported inner ethertype %#04x", et)
	}
	if len(b)-viewIPOff < mirrorTrailerLen {
		return v, fmt.Errorf("packet: missing mirror timestamp trailer")
	}
	ip := b[viewIPOff : len(b)-mirrorTrailerLen]
	if len(ip) < IPv4Len {
		return v, fmt.Errorf("packet: ipv4 header truncated (%d bytes)", len(ip))
	}
	if ver := ip[0] >> 4; ver != 4 {
		return v, fmt.Errorf("packet: not IPv4 (version %d)", ver)
	}
	ihl := int(ip[0]&0x0f) * 4
	if ihl < IPv4Len || len(ip) < ihl {
		return v, fmt.Errorf("packet: bad IHL %d", ihl)
	}
	if ipChecksum(ip[:ihl]) != 0 {
		return v, fmt.Errorf("packet: ipv4 checksum mismatch")
	}
	if proto := ip[9]; proto != IPProtoUDP {
		return v, fmt.Errorf("packet: unsupported inner protocol %d", proto)
	}
	udp := ip[ihl:]
	if len(udp) < UDPLen {
		return v, fmt.Errorf("packet: udp header truncated (%d bytes)", len(udp))
	}
	v.udpOff = viewIPOff + ihl
	if binary.BigEndian.Uint16(udp[2:4]) == UDPPortRoCE {
		if len(udp)-UDPLen < BTHLen {
			return v, fmt.Errorf("packet: BTH truncated (%d bytes)", len(udp)-UDPLen)
		}
		v.bthOff = v.udpOff + UDPLen
	}
	return v, nil
}

// VLANID returns the mirror VLAN id (the observation point).
func (v *MirrorView) VLANID() uint16 {
	return binary.BigEndian.Uint16(v.b[viewVLANOff:viewVLANOff+2]) & 0x0fff
}

// TimestampNs returns the switch-local timestamp trailer.
func (v *MirrorView) TimestampNs() int64 {
	return int64(binary.BigEndian.Uint64(v.b[len(v.b)-mirrorTrailerLen:]))
}

// CE reports whether the inner IPv4 header carries the
// congestion-experienced codepoint.
func (v *MirrorView) CE() bool { return v.b[viewIPOff+1]&0x3 == ECNCE }

// TotalLen returns the inner IPv4 total length field.
func (v *MirrorView) TotalLen() uint16 {
	return binary.BigEndian.Uint16(v.b[viewIPOff+2 : viewIPOff+4])
}

// OrigLen returns the original packet's wire size: IP total length plus
// Ethernet overhead (header + FCS).
func (v *MirrorView) OrigLen() int { return int(v.TotalLen()) + EthernetLen + 4 }

// SrcIP returns the inner IPv4 source address.
func (v *MirrorView) SrcIP() uint32 {
	return binary.BigEndian.Uint32(v.b[viewIPOff+12 : viewIPOff+16])
}

// DstIP returns the inner IPv4 destination address.
func (v *MirrorView) DstIP() uint32 {
	return binary.BigEndian.Uint32(v.b[viewIPOff+16 : viewIPOff+20])
}

// SrcPort returns the inner UDP source port.
func (v *MirrorView) SrcPort() uint16 {
	return binary.BigEndian.Uint16(v.b[v.udpOff : v.udpOff+2])
}

// DstPort returns the inner UDP destination port.
func (v *MirrorView) DstPort() uint16 {
	return binary.BigEndian.Uint16(v.b[v.udpOff+2 : v.udpOff+4])
}

// PSN returns the RoCEv2 packet sequence number (0 without a BTH).
func (v *MirrorView) PSN() uint32 {
	if v.bthOff < 0 {
		return 0
	}
	o := v.bthOff
	return uint32(v.b[o+9])<<16 | uint32(v.b[o+10])<<8 | uint32(v.b[o+11])
}

// Flow returns the inner packet's 5-tuple.
func (v *MirrorView) Flow() flowkey.Key {
	return flowkey.Key{
		SrcIP: v.SrcIP(), DstIP: v.DstIP(),
		SrcPort: v.SrcPort(), DstPort: v.DstPort(),
		Proto: flowkey.ProtoUDP,
	}
}

// Mirrored fills out from the view (a copy of the parsed fields, safe to
// retain after the underlying buffer is recycled).
func (v *MirrorView) Mirrored(out *Mirrored) {
	out.VLANID = v.VLANID()
	out.TimestampNs = v.TimestampNs()
	out.Flow = v.Flow()
	out.PSN = v.PSN()
	out.CE = v.CE()
	out.OrigLen = v.OrigLen()
}

// ipChecksum20 is ipChecksum specialized for the no-options 20-byte
// header: five 32-bit loads summed with end-around carry folds — the
// grouping is immaterial to the ones-complement sum.
func ipChecksum20(b []byte) uint16 {
	_ = b[19]
	s := uint64(binary.BigEndian.Uint32(b[0:4])) +
		uint64(binary.BigEndian.Uint32(b[4:8])) +
		uint64(binary.BigEndian.Uint32(b[8:12])) +
		uint64(binary.BigEndian.Uint32(b[12:16])) +
		uint64(binary.BigEndian.Uint32(b[16:20]))
	s = s>>32 + s&0xffffffff
	s = s>>32 + s&0xffffffff
	s = s>>16 + s&0xffff
	s = s>>16 + s&0xffff
	return ^uint16(s)
}

// DecodeMirrorInto parses a mirrored event packet into out without
// allocating. out is left partially written on error.
//
// The canonical frame — VLAN-tagged, no-options IPv4, UDP — decodes in a
// single fused pass; anything else (IP options, malformed input) takes
// the general ParseMirrorView path, which applies the identical checks.
func DecodeMirrorInto(b []byte, out *Mirrored) error {
	// Fixed offsets of the fast path: eth 0, vlan 14, ip 18 (IHL 20),
	// udp 38, bth 46, trailer at len-8. 54 bytes fit eth+vlan+ip+udp+trailer.
	if n := len(b); n >= 54 &&
		b[12] == 0x81 && b[13] == 0x00 && // EtherTypeVLAN
		b[16] == 0x08 && b[17] == 0x00 && // EtherTypeIPv4
		b[18] == 0x45 && // IPv4, no options
		b[27] == IPProtoUDP &&
		ipChecksum20(b[18:38]) == 0 {
		dstPort := binary.BigEndian.Uint16(b[40:42])
		psn := uint32(0)
		if dstPort == UDPPortRoCE {
			if n < 66 { // BTH would overlap the trailer: reject via slow path
				goto general
			}
			psn = uint32(b[55])<<16 | uint32(b[56])<<8 | uint32(b[57])
		}
		out.VLANID = binary.BigEndian.Uint16(b[14:16]) & 0x0fff
		out.TimestampNs = int64(binary.BigEndian.Uint64(b[n-8:]))
		out.Flow = flowkey.Key{
			SrcIP:   binary.BigEndian.Uint32(b[30:34]),
			DstIP:   binary.BigEndian.Uint32(b[34:38]),
			SrcPort: binary.BigEndian.Uint16(b[38:40]),
			DstPort: dstPort,
			Proto:   flowkey.ProtoUDP,
		}
		out.PSN = psn
		out.CE = b[19]&0x3 == ECNCE
		out.OrigLen = int(binary.BigEndian.Uint16(b[20:22])) + EthernetLen + 4
		return nil
	}
general:
	v, err := ParseMirrorView(b)
	if err != nil {
		return err
	}
	v.Mirrored(out)
	return nil
}
