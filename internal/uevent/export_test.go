package uevent

import (
	"encoding/binary"

	"umon/internal/flowkey"
	"umon/internal/netsim"
)

// DecodeBatch parses an encoded batch back into mirror records.
func DecodeBatch(b []byte) (*BatchReport, error) {
	if len(b) < 4 {
		return nil, errShortBatch
	}
	rep := &BatchReport{Switch: int16(binary.LittleEndian.Uint16(b[0:2]))}
	n := int(binary.LittleEndian.Uint16(b[2:4]))
	b = b[4:]
	const entry = 2 + 8 + 4 + 4 + 2 + 2 + 1 + 4 + 2
	if len(b) < n*entry {
		return nil, errShortBatch
	}
	for i := 0; i < n; i++ {
		e := b[i*entry:]
		rep.Entries = append(rep.Entries, MirrorRecord{
			Port:        netsim.PortID{Switch: rep.Switch, Port: int16(binary.LittleEndian.Uint16(e[0:2]))},
			TimestampNs: int64(binary.LittleEndian.Uint64(e[2:10])),
			Flow: flowkey.Key{
				SrcIP:   binary.LittleEndian.Uint32(e[10:14]),
				DstIP:   binary.LittleEndian.Uint32(e[14:18]),
				SrcPort: binary.LittleEndian.Uint16(e[18:20]),
				DstPort: binary.LittleEndian.Uint16(e[20:22]),
				Proto:   e[22],
			},
			PSN:       binary.LittleEndian.Uint32(e[23:27]),
			OrigBytes: int32(binary.LittleEndian.Uint16(e[27:29])),
			WireBytes: batchEntryBytes,
		})
	}
	return rep, nil
}

type batchErr string

func (e batchErr) Error() string { return string(e) }

const errShortBatch = batchErr("uevent: truncated batch report")
