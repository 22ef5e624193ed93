package uevent

import (
	"encoding/binary"

	"umon/internal/flowkey"
)

// §5's programmable-switch enhancements: "we can directly achieve
// effective de-duplication of event packets and enable batch reporting,
// promoting efficiency considerably". Two building blocks:
//
//   - Deduplicator suppresses repeat observations of the same packet. A
//     CE-marked packet traverses up to four switch egresses after the
//     marking hop, so ACL mirroring can report it several times; a
//     programmable pipeline can filter repeats with a small (flow, PSN)
//     table.
//   - BatchReporter coalesces many event observations into one compact
//     report packet instead of one (possibly full-size) mirror copy per
//     observation.

// Deduplicator filters repeated (flow, PSN) observations within a TTL.
// It models a hash-indexed filter table of bounded size: collisions evict,
// so dedup is best-effort — exactly what a switch pipeline affords.
type Deduplicator struct {
	ttlNs int64
	seed  uint64
	slots []dedupSlot

	admitted  int64
	duplicate int64
}

type dedupSlot struct {
	flow  flowkey.Key
	psn   uint32
	seen  int64
	valid bool
}

// NewDeduplicator builds a filter with the given table size (rounded up to
// a power of two, minimum 64) and TTL (default 1 ms).
func NewDeduplicator(slots int, ttlNs int64) *Deduplicator {
	n := 64
	for n < slots {
		n <<= 1
	}
	if ttlNs <= 0 {
		ttlNs = 1_000_000
	}
	return &Deduplicator{ttlNs: ttlNs, seed: 0xded09, slots: make([]dedupSlot, n)}
}

// Admit reports whether the observation is first-seen (true) or a
// suppressed duplicate (false).
func (d *Deduplicator) Admit(flow flowkey.Key, psn uint32, ns int64) bool {
	idx := (flow.Hash(d.seed) ^ uint64(psn)*0x9e3779b97f4a7c15) & uint64(len(d.slots)-1)
	s := &d.slots[idx]
	if s.valid && s.flow == flow && s.psn == psn && ns-s.seen <= d.ttlNs {
		d.duplicate++
		return false
	}
	*s = dedupSlot{flow: flow, psn: psn, seen: ns, valid: true}
	d.admitted++
	return true
}

// Stats reports admitted and suppressed counts.
func (d *Deduplicator) Stats() (admitted, duplicates int64) { return d.admitted, d.duplicate }

// Dedup filters a mirror stream (already ACL-sampled) through a fresh
// filter, preserving order.
func Dedup(mirrors []MirrorRecord, slots int, ttlNs int64) []MirrorRecord {
	d := NewDeduplicator(slots, ttlNs)
	out := mirrors[:0:0]
	for _, m := range mirrors {
		if d.Admit(m.Flow, m.PSN, m.TimestampNs) {
			out = append(out, m)
		}
	}
	return out
}

// Batch wire format: one UDP report carries up to BatchEntries compact
// records instead of one mirrored copy per observation.
const (
	// batchHeaderBytes covers Ethernet+IPv4+UDP plus a count field.
	batchHeaderBytes = 44
	// batchEntryBytes: port id (2) + timestamp (6, truncated ns) +
	// 5-tuple (13) + PSN (3) + original length (2).
	batchEntryBytes = 26
	// BatchEntries is the default records per batch packet (fits a
	// 1500 B MTU).
	BatchEntries = 55
)

// BatchReport is one encoded batch.
type BatchReport struct {
	Switch  int16
	Entries []MirrorRecord
}

// WireBytes is the batch packet's size on the reporting link.
func (b *BatchReport) WireBytes() int64 {
	return batchHeaderBytes + int64(len(b.Entries))*batchEntryBytes
}

// Encode serializes the batch (compact binary; the analyzer side decodes
// with DecodeBatch).
func (b *BatchReport) Encode() []byte {
	out := make([]byte, 0, b.WireBytes())
	out = binary.LittleEndian.AppendUint16(out, uint16(b.Switch))
	out = binary.LittleEndian.AppendUint16(out, uint16(len(b.Entries)))
	for _, e := range b.Entries {
		out = binary.LittleEndian.AppendUint16(out, uint16(e.Port.Port))
		out = binary.LittleEndian.AppendUint64(out, uint64(e.TimestampNs))
		out = binary.LittleEndian.AppendUint32(out, e.Flow.SrcIP)
		out = binary.LittleEndian.AppendUint32(out, e.Flow.DstIP)
		out = binary.LittleEndian.AppendUint16(out, e.Flow.SrcPort)
		out = binary.LittleEndian.AppendUint16(out, e.Flow.DstPort)
		out = append(out, e.Flow.Proto)
		out = binary.LittleEndian.AppendUint32(out, e.PSN)
		out = binary.LittleEndian.AppendUint16(out, uint16(e.OrigBytes))
	}
	return out
}

// Batch groups a mirror stream into per-switch batch reports and returns
// them with the total reporting bandwidth in bytes.
func Batch(mirrors []MirrorRecord, entriesPerBatch int) ([]BatchReport, int64) {
	if entriesPerBatch <= 0 {
		entriesPerBatch = BatchEntries
	}
	perSwitch := make(map[int16][]MirrorRecord)
	var order []int16
	for _, m := range mirrors {
		if _, ok := perSwitch[m.Port.Switch]; !ok {
			order = append(order, m.Port.Switch)
		}
		perSwitch[m.Port.Switch] = append(perSwitch[m.Port.Switch], m)
	}
	var out []BatchReport
	var bytes int64
	for _, sw := range order {
		ms := perSwitch[sw]
		for len(ms) > 0 {
			n := entriesPerBatch
			if n > len(ms) {
				n = len(ms)
			}
			b := BatchReport{Switch: sw, Entries: ms[:n]}
			bytes += b.WireBytes()
			out = append(out, b)
			ms = ms[n:]
		}
	}
	return out, bytes
}
