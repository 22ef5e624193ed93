// Package uevent implements µMon's switch-side transient congestion event
// capture (§5): an ACL rule matches packets whose IP ECN field is CE
// (congestion experienced) and whose RoCEv2 PSN has w low bits equal to
// zero (a 1/2^w uniform sampler), and remote-mirrors the matches — VLAN
// tagged per observation port, timestamped by the mirror session — to the
// µMon analyzer. The package also grades the capture against the
// simulator's ground-truth episodes (Figures 14 and 15).
package uevent

import (
	"fmt"
	"sort"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/packet"
)

// ACLRule is the commodity-switch matching rule of Figure 8: match the CE
// codepoint and the low SampleBits of the PSN, mirror on match.
type ACLRule struct {
	// SampleBits w gives sampling probability 1/2^w (0 = mirror every CE
	// packet).
	SampleBits uint
}

// Matches applies the rule to one packet observation.
func (r ACLRule) Matches(ce bool, psn uint32) bool {
	if !ce {
		return false
	}
	mask := uint32(1)<<r.SampleBits - 1
	return psn&mask == 0
}

// String renders the rule the way the paper's figures label it.
func (r ACLRule) String() string { return fmt.Sprintf("p=1/%d", int64(1)<<r.SampleBits) }

// VLANFor encodes an observation port into the mirror VLAN id (12 bits:
// 6 bits of switch, 6 bits of port — ample for the k=4 fat-tree).
func VLANFor(p netsim.PortID) uint16 {
	return uint16(p.Switch&0x3f)<<6 | uint16(p.Port&0x3f)
}

// PortForVLAN inverts VLANFor.
func PortForVLAN(v uint16) netsim.PortID {
	return netsim.PortID{Switch: int16(v >> 6 & 0x3f), Port: int16(v & 0x3f)}
}

// MirrorRecord is one mirrored event packet as the analyzer receives it.
type MirrorRecord struct {
	Port        netsim.PortID
	TimestampNs int64
	FlowID      int32
	PSN         uint32
	// OrigBytes is the original packet's wire size (what full-packet
	// mirroring would cost).
	OrigBytes int32
	// WireBytes is the mirrored copy's size on the mirror link.
	WireBytes int32
	Flow      flowkey.Key
}

// Capture applies the ACL rule to a simulation's CE log and produces the
// mirror stream. truncBytes >0 truncates each mirrored copy (head-only
// mirroring); 0 mirrors full packets, as µMon's evaluation does.
func Capture(celog []netsim.CERecord, rule ACLRule, truncBytes int32) []MirrorRecord {
	out := make([]MirrorRecord, 0, len(celog)>>rule.SampleBits)
	for _, ce := range celog {
		if !rule.Matches(true, ce.PSN) {
			continue
		}
		wire := ce.Size
		if truncBytes > 0 && wire > truncBytes {
			wire = truncBytes
		}
		out = append(out, MirrorRecord{
			Port:        netsim.PortID{Switch: ce.Switch, Port: ce.Port},
			TimestampNs: ce.Ns,
			FlowID:      ce.FlowID,
			PSN:         ce.PSN,
			OrigBytes:   ce.Size,
			WireBytes:   wire,
			Flow:        ce.Flow,
		})
	}
	return out
}

// SortByTime orders a mirror stream by timestamp in place. Per-port
// consumers (the analyzer's streaming clusterer, Grade's binary search)
// need time order; streams from Capture already have it, pcap replays and
// merged uploads may not.
func SortByTime(ms []MirrorRecord) {
	sort.Slice(ms, func(i, j int) bool { return ms[i].TimestampNs < ms[j].TimestampNs })
}

// AppendMirrorPacket appends the on-the-wire form of one mirror record
// (VLAN-tagged, timestamp-trailed) to dst and returns the extended slice.
// Emitters reuse one scratch buffer per packet and do not allocate.
func AppendMirrorPacket(dst []byte, m MirrorRecord) []byte {
	return packet.AppendMirror(dst, &packet.Mirrored{
		VLANID:      VLANFor(m.Port),
		TimestampNs: m.TimestampNs,
		Flow:        m.Flow,
		PSN:         m.PSN & 0xffffff,
		CE:          true,
		OrigLen:     int(m.OrigBytes),
	})
}

// DecodeMirrorPacket parses one on-the-wire mirrored packet into the record
// the analyzer folds. The decode is an in-place view: b is not retained.
// A packet without the CE mark cannot have matched the ACL and is an error.
func DecodeMirrorPacket(b []byte) (MirrorRecord, error) {
	var m packet.Mirrored
	if err := packet.DecodeMirrorInto(b, &m); err != nil {
		return MirrorRecord{}, err
	}
	if !m.CE {
		return MirrorRecord{}, fmt.Errorf("uevent: mirrored packet without CE mark (flow %s)", m.Flow)
	}
	return MirrorRecord{
		Port:        PortForVLAN(m.VLANID),
		TimestampNs: m.TimestampNs,
		PSN:         m.PSN,
		OrigBytes:   int32(m.OrigLen),
		WireBytes:   int32(m.OrigLen),
		Flow:        m.Flow,
	}, nil
}

// --- grading against ground truth (Figures 14, 15) ---

// RecallBin is one x-position of Figure 14a-c: events whose maximum queue
// length falls in [LoBytes, HiBytes).
type RecallBin struct {
	LoBytes, HiBytes int64
	Events           int
	Captured         int
	// FlowsTruth / FlowsCaptured accumulate per-event participant counts
	// for the Figure 14d-f series.
	FlowsTruth    int
	FlowsCaptured int
}

// Recall returns the bin's capture ratio (1 if no events).
func (b *RecallBin) Recall() float64 {
	if b.Events == 0 {
		return 1
	}
	return float64(b.Captured) / float64(b.Events)
}

// AvgFlowsCaptured returns the mean number of distinct flows captured per
// event in the bin.
func (b *RecallBin) AvgFlowsCaptured() float64 {
	if b.Events == 0 {
		return 0
	}
	return float64(b.FlowsCaptured) / float64(b.Events)
}

// AvgFlowsTruth returns the mean number of participant flows per event.
func (b *RecallBin) AvgFlowsTruth() float64 {
	if b.Events == 0 {
		return 0
	}
	return float64(b.FlowsTruth) / float64(b.Events)
}

// Grade bins the ground-truth episodes by maximum queue length (binBytes
// per bin up to maxBytes) and checks, for each, whether at least one
// mirrored packet from the same port falls within the episode span
// (±slackNs), counting the distinct captured flows among episode
// participants.
func Grade(episodes []netsim.Episode, mirrors []MirrorRecord, binBytes, maxBytes int64, slackNs int64) []RecallBin {
	if binBytes <= 0 {
		binBytes = 25 << 10
	}
	nbins := int((maxBytes + binBytes - 1) / binBytes)
	if nbins < 1 {
		nbins = 1
	}
	bins := make([]RecallBin, nbins)
	for i := range bins {
		bins[i].LoBytes = int64(i) * binBytes
		bins[i].HiBytes = int64(i+1) * binBytes
	}

	// Index mirrors per port, sorted by time.
	perPort := make(map[netsim.PortID][]MirrorRecord)
	for _, m := range mirrors {
		perPort[m.Port] = append(perPort[m.Port], m)
	}
	for _, ms := range perPort {
		SortByTime(ms)
	}

	for _, ep := range episodes {
		bi := int(ep.MaxBytes / binBytes)
		if bi >= nbins {
			bi = nbins - 1
		}
		b := &bins[bi]
		b.Events++
		b.FlowsTruth += len(ep.Flows)

		ms := perPort[ep.Port]
		lo, hi := ep.StartNs-slackNs, ep.EndNs+slackNs
		// Binary search the first mirror ≥ lo.
		i := sort.Search(len(ms), func(i int) bool { return ms[i].TimestampNs >= lo })
		seen := map[int32]struct{}{}
		for ; i < len(ms) && ms[i].TimestampNs <= hi; i++ {
			seen[ms[i].FlowID] = struct{}{}
		}
		if len(seen) > 0 {
			b.Captured++
		}
		// Count captured flows that are true participants.
		part := make(map[int32]struct{}, len(ep.Flows))
		for _, f := range ep.Flows {
			part[f] = struct{}{}
		}
		for f := range seen {
			if _, ok := part[f]; ok {
				b.FlowsCaptured++
			}
		}
	}
	return bins
}

// RecallAbove aggregates recall over all episodes with max queue length ≥
// threshold (the "99% recall for congestions exceeding ECN KMax" claim).
func RecallAbove(bins []RecallBin, threshold int64) float64 {
	var events, captured int
	for _, b := range bins {
		if b.LoBytes >= threshold {
			events += b.Events
			captured += b.Captured
		}
	}
	if events == 0 {
		return 1
	}
	return float64(captured) / float64(events)
}

// BandwidthReport summarizes mirror traffic cost (Figure 15).
type BandwidthReport struct {
	// PerSwitchBps maps switch index → average mirror bandwidth.
	PerSwitchBps map[int16]float64
	// MaxBps is the busiest switch's mirror bandwidth.
	MaxBps float64
	// TotalBytes is the aggregate mirrored volume.
	TotalBytes int64
}

// Bandwidth computes per-switch mirror bandwidth over the trace duration.
func Bandwidth(mirrors []MirrorRecord, durationNs int64) BandwidthReport {
	rep := BandwidthReport{PerSwitchBps: make(map[int16]float64)}
	if durationNs <= 0 {
		return rep
	}
	perSwitch := make(map[int16]int64)
	for _, m := range mirrors {
		perSwitch[m.Port.Switch] += int64(m.WireBytes)
		rep.TotalBytes += int64(m.WireBytes)
	}
	for sw, bytes := range perSwitch {
		bps := float64(bytes) * 8 / float64(durationNs) * 1e9
		rep.PerSwitchBps[sw] = bps
		if bps > rep.MaxBps {
			rep.MaxBps = bps
		}
	}
	return rep
}
