// Package packet implements stdlib-only encoders/decoders for the headers
// µMon's mirrored event packets carry on the wire: Ethernet, 802.1Q VLAN
// (remote-mirror tagging, §5), IPv4, UDP and the RoCEv2 Base Transport
// Header whose 24-bit PSN the sampling ACL matches.
package packet

import "encoding/binary"

// EtherType values used here.
const (
	EtherTypeIPv4 = 0x0800
	EtherTypeVLAN = 0x8100
)

// IPProtoUDP is the IPv4 protocol number of UDP.
const IPProtoUDP = 17

// UDPPortRoCE is the RoCEv2 well-known destination port.
const UDPPortRoCE = 4791

// Header sizes in bytes.
const (
	EthernetLen = 14
	VLANLen     = 4
	IPv4Len     = 20
	UDPLen      = 8
	BTHLen      = 12
)

// Ethernet is a IEEE 802.3 MAC header (no FCS).
type Ethernet struct {
	Dst       [6]byte
	Src       [6]byte
	EtherType uint16
}

// Marshal appends the wire form to b.
func (h *Ethernet) Marshal(b []byte) []byte {
	b = append(b, h.Dst[:]...)
	b = append(b, h.Src[:]...)
	return binary.BigEndian.AppendUint16(b, h.EtherType)
}

// ECN codepoints in the IPv4 TOS field.
const (
	ECNNotECT = 0b00
	ECNECT1   = 0b01
	ECNECT0   = 0b10
	ECNCE     = 0b11 // congestion experienced: the µEvent ACL match
)

// IPv4 is a minimal IPv4 header (no options).
type IPv4 struct {
	DSCP     uint8 // 6 bits
	ECN      uint8 // 2 bits
	TotalLen uint16
	TTL      uint8
	Protocol uint8
	SrcIP    uint32
	DstIP    uint32
}

// Marshal appends the wire form (with a correct header checksum) to b.
func (h *IPv4) Marshal(b []byte) []byte {
	start := len(b)
	b = append(b, 0x45, h.DSCP<<2|h.ECN&0x3)
	b = binary.BigEndian.AppendUint16(b, h.TotalLen)
	b = append(b, 0, 0, 0, 0) // ID + flags/fragment
	b = append(b, h.TTL, h.Protocol, 0, 0)
	b = binary.BigEndian.AppendUint32(b, h.SrcIP)
	b = binary.BigEndian.AppendUint32(b, h.DstIP)
	csum := ipChecksum(b[start : start+IPv4Len])
	binary.BigEndian.PutUint16(b[start+10:start+12], csum)
	return b
}

// ipChecksum is the RFC 1071 ones-complement sum; computing it over a
// header whose checksum field is filled yields 0 for a valid header.
func ipChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(binary.BigEndian.Uint16(b[i : i+2]))
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

// UDP is a UDP header. The checksum is left zero (permitted for IPv4 and
// common for RoCEv2).
type UDP struct {
	SrcPort uint16
	DstPort uint16
	Length  uint16
}

// Marshal appends the wire form to b.
func (h *UDP) Marshal(b []byte) []byte {
	b = binary.BigEndian.AppendUint16(b, h.SrcPort)
	b = binary.BigEndian.AppendUint16(b, h.DstPort)
	b = binary.BigEndian.AppendUint16(b, h.Length)
	return binary.BigEndian.AppendUint16(b, 0)
}

// BTH is the InfiniBand Base Transport Header carried by RoCEv2. µMon's
// sampling matches the low bits of the 24-bit PSN (§5).
type BTH struct {
	Opcode  uint8
	DestQP  uint32 // 24 bits
	AckReq  bool
	PSN     uint32 // 24 bits
	PadCnt  uint8  // 2 bits
	Version uint8  // 4 bits
	PKey    uint16
}

// Marshal appends the wire form to b.
func (h *BTH) Marshal(b []byte) []byte {
	b = append(b, h.Opcode, 0x40|h.PadCnt<<4|h.Version&0xf) // SE=0, M=1
	b = binary.BigEndian.AppendUint16(b, h.PKey)
	b = append(b, 0) // reserved
	b = append(b, byte(h.DestQP>>16), byte(h.DestQP>>8), byte(h.DestQP))
	a := byte(0)
	if h.AckReq {
		a = 0x80
	}
	b = append(b, a)
	return append(b, byte(h.PSN>>16), byte(h.PSN>>8), byte(h.PSN))
}
