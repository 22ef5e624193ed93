package packet

import (
	"testing"

	"umon/internal/flowkey"
)

func benchMirrored() *Mirrored {
	return &Mirrored{
		VLANID:      0x085,
		TimestampNs: 123_456_789,
		Flow: flowkey.Key{
			SrcIP: 0x0a000101, DstIP: 0x0a000201,
			SrcPort: 9000, DstPort: 4791, Proto: flowkey.ProtoUDP,
		},
		PSN:     0xabcd,
		CE:      true,
		OrigLen: 1058,
	}
}

// BenchmarkDecodeMirrorInto measures the zero-copy view decode into a
// reused struct — the analyzer's steady-state path.
func BenchmarkDecodeMirrorInto(b *testing.B) {
	wire := EncodeMirror(benchMirrored())
	var m Mirrored
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeMirrorInto(wire, &m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppendMirror measures encoding into a reused scratch buffer —
// the switch monitor's steady-state path.
func BenchmarkAppendMirror(b *testing.B) {
	m := benchMirrored()
	scratch := make([]byte, 0, MirrorEncodedLen)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scratch = AppendMirror(scratch[:0], m)
	}
}
