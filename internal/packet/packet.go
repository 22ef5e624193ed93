// Package packet encodes and decodes µMon's mirrored event packets on the
// wire: Ethernet, 802.1Q VLAN (remote-mirror tagging, §5), IPv4, UDP and
// the RoCEv2 Base Transport Header whose 24-bit PSN the sampling ACL
// matches, plus the switch's timestamp trailer. Both directions work on
// fixed offsets into one buffer; the per-header structs that build the
// same bytes field by field live in the tests, as the oracle.
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
