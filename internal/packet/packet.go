// Package packet encodes and decodes µMon's mirrored event packets on the
// wire: Ethernet, 802.1Q VLAN (remote-mirror tagging, §5), IPv4, UDP and
// the RoCEv2 Base Transport Header whose 24-bit PSN the sampling ACL
// matches, plus the switch's timestamp trailer. Both directions work in
// place on one buffer; the per-header structs that build the same bytes
// field by field live in the tests, as the oracle.
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

// ECN codepoints in the IPv4 TOS field.
const (
	ECNNotECT = 0b00
	ECNECT1   = 0b01
	ECNECT0   = 0b10
	ECNCE     = 0b11 // congestion experienced: the µEvent ACL match
)

// ipChecksum is the RFC 1071 ones-complement checksum, summed over
// 32-bit words — 2^16 ≡ 1 modulo 0xffff, so how the 16-bit words are
// grouped does not change the folded sum — with a short tail padded with
// zero bytes. The 20 bytes every IPv4 header has are summed in five
// straight loads, options word by word. Over a header whose checksum
// field is filled it yields 0 for a valid header.
func ipChecksum(b []byte) uint16 {
	var sum uint64
	if len(b) >= IPv4Len {
		sum = uint64(binary.BigEndian.Uint32(b)) + uint64(binary.BigEndian.Uint32(b[4:])) +
			uint64(binary.BigEndian.Uint32(b[8:])) + uint64(binary.BigEndian.Uint32(b[12:])) +
			uint64(binary.BigEndian.Uint32(b[16:]))
		b = b[IPv4Len:]
	}
	for ; len(b) >= 4; b = b[4:] {
		sum += uint64(binary.BigEndian.Uint32(b))
	}
	for i, c := range b {
		sum += uint64(c) << (24 - 8*i)
	}
	sum = sum>>32 + sum&0xffffffff // < 2^33
	sum = sum>>32 + sum&0xffffffff // ≤ 2^32
	sum = sum>>16 + sum&0xffff     // ≤ 0x1fffe
	sum = sum>>16 + sum&0xffff     // ≤ 0xffff
	return ^uint16(sum)
}
