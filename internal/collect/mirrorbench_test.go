package collect

import (
	"encoding/binary"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/netsim"
	"umon/internal/packet"
	"umon/internal/uevent"
)

// The mirror feed of the collector's mirror benchmarks: 96 ports in six
// groups of sixteen, one CE mirror every 100 ns. A group's ports mark in
// turn for 4,096 mirrors (sixteen overlapping events of 256 mirrors and
// 410 µs each) and then stay quiet for 2 ms, far beyond the clustering
// gap, so while one group's events grow the previous group's close. A
// port's mirrors come in runs of four of one flow out of three.
const (
	feedPorts    = 96
	feedGroup    = 4096
	feedMirrors  = feedPorts / 16 * feedGroup
	feedStepNs   = 100
	feedSpanNs   = feedMirrors * feedStepNs
	feedTrailOff = packet.MirrorEncodedLen - 8
)

// mirrorFeed returns the wire bytes of one cycle of the feed.
func mirrorFeed() []byte {
	wire := make([]byte, 0, feedMirrors*packet.MirrorEncodedLen)
	for i := 0; i < feedMirrors; i++ {
		port := i%16*6 + i/feedGroup
		wire = uevent.AppendMirrorPacket(wire, uevent.MirrorRecord{
			Port:        netsim.PortID{Switch: int16(port / 4), Port: int16(port % 4)},
			TimestampNs: int64(i) * feedStepNs,
			PSN:         uint32(i),
			OrigBytes:   1058,
			WireBytes:   1058,
			Flow:        key(port*3 + i/64%3),
		})
	}
	return wire
}

// benchCollectorMirrors feeds b.N mirrors, cycle after cycle with the
// timestamps moved on, through AddMirrorPacket, and after each through
// every (nil: the automatic Poll only). ns/op and allocs/op are per
// mirror; every event is delivered to OnEvent.
func benchCollectorMirrors(b *testing.B, every func(*Collector)) {
	wire := mirrorFeed()
	events := 0
	c := New(Config{GapNs: 50_000, OnEvent: func(analyzer.Event) { events++ }})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % feedMirrors
		pkt := wire[k*packet.MirrorEncodedLen : (k+1)*packet.MirrorEncodedLen]
		binary.BigEndian.PutUint64(pkt[feedTrailOff:], uint64(i/feedMirrors*feedSpanNs+k*feedStepNs))
		if err := c.AddMirrorPacket(pkt); err != nil {
			b.Fatal(err)
		}
		if every != nil {
			every(c)
		}
	}
	b.StopTimer()
	c.Drain()
	if want := (b.N + feedGroup/16 - 1) / (feedGroup / 16); events < want-16 || events > want+16 {
		b.Fatalf("%d events out of %d mirrors, want about %d", events, b.N, want)
	}
}

// BenchmarkCollectorMirrorIngest is the collector's online mirror path as
// a deployment and bench/ drive it: AddMirrorPacket with the automatic
// Poll every pollEvery mirrors.
func BenchmarkCollectorMirrorIngest(b *testing.B) { benchCollectorMirrors(b, nil) }

// BenchmarkCollectorFollowPoll is umon-collect -follow on a trickling feed,
// where each tailed batch is one mirror: a Poll after every mirror, sixteen
// events open at each.
func BenchmarkCollectorFollowPoll(b *testing.B) {
	benchCollectorMirrors(b, func(c *Collector) { c.Poll() })
}
