package packet

import "umon/internal/flowkey"

// Data is a plain (non-mirrored) RoCEv2 data packet's parsed headers.
type Data struct {
	Flow    flowkey.Key
	PSN     uint32
	CE      bool
	WireLen int // original wire length incl. Ethernet + FCS
}

// EncodeData builds an Ethernet/IPv4/UDP/BTH frame for a data packet,
// truncating the payload to at most payloadCap bytes (0 keeps headers
// only). Used to export simulated traffic as pcap.
func EncodeData(d *Data, payloadCap int) []byte {
	ipLen := d.WireLen - EthernetLen - 4
	if ipLen < IPv4Len+UDPLen+BTHLen {
		ipLen = IPv4Len + UDPLen + BTHLen
	}
	if ipLen > 0xffff {
		ipLen = 0xffff
	}
	b := make([]byte, 0, EthernetLen+IPv4Len+UDPLen+BTHLen+payloadCap)
	eth := Ethernet{EtherType: EtherTypeIPv4}
	b = eth.Marshal(b)
	ecn := uint8(ECNECT0)
	if d.CE {
		ecn = ECNCE
	}
	ip := IPv4{
		ECN: ecn, TotalLen: uint16(ipLen), TTL: 64, Protocol: IPProtoUDP,
		SrcIP: d.Flow.SrcIP, DstIP: d.Flow.DstIP,
	}
	b = ip.Marshal(b)
	udp := UDP{SrcPort: d.Flow.SrcPort, DstPort: d.Flow.DstPort, Length: uint16(ipLen - IPv4Len)}
	b = udp.Marshal(b)
	bth := BTH{Opcode: 0x0a, PSN: d.PSN & 0xffffff}
	b = bth.Marshal(b)
	pay := ipLen - IPv4Len - UDPLen - BTHLen
	if pay > payloadCap {
		pay = payloadCap
	}
	if pay > 0 {
		b = append(b, make([]byte, pay)...)
	}
	return b
}
