package netsim

import "umon/internal/flowkey"

// PacketType distinguishes the simulator's packet kinds.
type PacketType uint8

const (
	// Data is a RoCEv2 data segment.
	Data PacketType = iota
	// CNP is a DCQCN congestion notification packet (receiver → sender).
	CNP
	// ACK is a cumulative acknowledgement (window-based flows).
	ACK
	// NAK is a RoCE RC out-of-sequence NAK carrying the expected PSN; the
	// sender rewinds (go-back-N).
	NAK
)

func (t PacketType) String() string {
	switch t {
	case CNP:
		return "CNP"
	case ACK:
		return "ACK"
	case NAK:
		return "NAK"
	}
	return "DATA"
}

// Wire overheads: Ethernet(18 incl. FCS) + IPv4(20) + UDP(8) + BTH(12).
const (
	HeaderBytes = 58
	// PayloadBytes is the data segment payload (≈1 KB MTU segments).
	PayloadBytes = 1000
	// CNPBytes is the wire size of a CNP.
	CNPBytes = 64
	// AckBytes is the wire size of ACK and NAK packets.
	AckBytes = 64
)

// Packet is a simulated packet. Packets are heap-allocated once at the
// sender and flow through the fabric by pointer; switches only mutate the
// CE bit and cache the flow's ECMP hash.
type Packet struct {
	Flow   flowkey.Key
	FlowID int32
	Type   PacketType
	PSN    uint32
	Size   int32 // bytes on the wire
	ECT    bool  // ECN-capable transport
	CE     bool  // congestion experienced
	SentNs int64
	// Last reports whether this is the flow's final data segment.
	Last bool
	// Win marks a window-based (DCTCP) flow's segment, whose go-back-N
	// receiver ACKs cumulatively and echoes CE.
	Win bool
	// ecmp is Flow's ECMP hash, computed by the first switch with a choice
	// of next hops (0: not yet; a hash of 0 is just computed again).
	ecmp uint64
}
