package collect

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/netsim"
	"umon/internal/pcapio"
	"umon/internal/telemetry"
	"umon/internal/uevent"
)

// disorderedFeed draws a mirror feed over 24 ports: bursts of 3–60 mirrors
// 0.2–2 µs apart, up to six ports bursting at once, every port quiet for at
// least 2.5 gaps between its bursts (so that no accepted mirror can fall
// within the gap of an event already emitted), ports 20–23 idle for a long
// stretch between theirs. The time-ordered feed is then disturbed: adjacent
// records swapped (per-port disorder when both are of one port) and records
// delivered twice in a row.
func disorderedFeed(rng *rand.Rand, gapNs int64) []uevent.MirrorRecord {
	type burst struct {
		port    int
		at, end int64
	}
	var feed []uevent.MirrorRecord
	free := make([]int64, 24) // when each port may burst again
	now := int64(1_000_000)
	for b := 0; b < 400; b++ {
		now += rng.Int63n(gapNs / 2)
		port := rng.Intn(20)
		if b%57 == 56 {
			port = 20 + b/57%4
		}
		if free[port] > now {
			continue
		}
		ns := now
		for i, n := 0, 3+rng.Intn(58); i < n; i++ {
			ns += 200 + rng.Int63n(1800)
			feed = append(feed, uevent.MirrorRecord{
				Port:        netsim.PortID{Switch: int16(port / 4), Port: int16(port % 4)},
				TimestampNs: ns,
				OrigBytes:   int32(64 + rng.Intn(1400)),
				Flow:        key(port*8 + rng.Intn(1+rng.Intn(6))),
			})
		}
		free[port] = ns + gapNs*5/2
	}
	uevent.SortByTime(feed)
	for i := 0; i+1 < len(feed); i++ {
		switch rng.Intn(12) {
		case 0:
			feed[i], feed[i+1] = feed[i+1], feed[i]
			i++
		case 1:
			feed = slices.Insert(feed, i+1, feed[i])
			i++
		}
	}
	return feed
}

func lessEvent(a, b analyzer.Event) int {
	return cmp.Or(cmp.Compare(a.StartNs, b.StartNs),
		cmp.Compare(a.Port.Switch, b.Port.Switch), cmp.Compare(a.Port.Port, b.Port.Port))
}

// TestOnlineDetectionMatchesBatchUnderDisorder is the online path's
// differential test: whatever OnEvent delivered, Drain included, must be
// the batch analyzer's DetectEvents over the mirrors the collector did not
// drop as late — each event exactly once and, within one detection pass,
// in DetectEvents' order — with nothing left in the analyzer afterwards.
func TestOnlineDetectionMatchesBatchUnderDisorder(t *testing.T) {
	for _, gapNs := range []int64{20_000, 50_000, 200_000} {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("gap%dus/seed%d", gapNs/1000, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				feed := disorderedFeed(rng, gapNs)
				reg := telemetry.NewRegistry()
				var all, pass []analyzer.Event
				c := New(Config{GapNs: gapNs, Stats: NewStats(reg), OnEvent: func(ev analyzer.Event) { pass = append(pass, ev) }})
				endPass := func() {
					if !slices.IsSortedFunc(pass, lessEvent) {
						t.Fatalf("one pass delivered events out of order: %+v", pass)
					}
					all, pass = append(all, pass...), pass[:0]
				}
				batch := analyzer.NewWithGap(gapNs)
				late := 0
				for i, m := range feed {
					if m.TimestampNs >= c.trimNs {
						batch.AddMirror(m)
					} else {
						late++
					}
					c.AddMirror(m)
					endPass()
					if rng.Intn(40) == 0 {
						c.Poll()
						endPass()
					}
					if i%500 == 499 && c.trimNs > 0 {
						// A mirror from below the trim horizon, on a port that
						// may hold an open event: dropped, nothing disturbed.
						stale := m
						stale.TimestampNs = c.trimNs - 1 - rng.Int63n(gapNs)
						c.AddMirror(stale)
						late++
					}
				}
				got := c.Drain()
				endPass()
				if n := heldRecords(c); n != 0 {
					t.Errorf("%d mirror records left in the analyzer after Drain", n)
				}
				if n := reg.Value("umon_collect_late_mirrors_total"); n != int64(late) || late == 0 {
					t.Errorf("late mirrors counted %d, the feed held %d (want some)", n, late)
				}
				want := batch.DetectEvents(gapNs)
				slices.SortFunc(all, lessEvent)
				if !reflect.DeepEqual(all, want) {
					t.Fatalf("online delivered %d events, batch detects %d over the same mirrors", len(all), len(want))
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("Events() after Drain differs from the batch events")
				}
			})
		}
	}
}

// TestAddMirrorPacketsMatchesPerPacket feeds one wire feed packet by packet
// and in batches of random sizes: events, their order, the late count, the
// ingest count and the watermark must agree, and so must the automatic
// poll cadence (the same events at the same feed positions).
func TestAddMirrorPacketsMatchesPerPacket(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	feed := disorderedFeed(rng, 50_000)
	type emission struct {
		at int64 // mirrors folded when the event came out
		ev analyzer.Event
	}
	run := func(batched bool) (out []emission, st Status, late int64) {
		reg := telemetry.NewRegistry()
		fed := 0
		var c *Collector
		c = New(Config{Stats: NewStats(reg), OnEvent: func(ev analyzer.Event) {
			out = append(out, emission{c.Stats().MirrorsIngested.Value(), ev})
		}})
		var pkts []pcapio.Packet
		for i, m := range feed {
			wire := uevent.AppendMirrorPacket(nil, m)
			if i%97 == 0 {
				wire = wire[:20] // unparseable
			}
			if !batched {
				if err := c.AddMirrorPacket(wire); err == nil {
					fed++
				}
				continue
			}
			if pkts = append(pkts, pcapio.Packet{Data: wire}); rng.Intn(100) == 0 || i == len(feed)-1 {
				in, bad := c.AddMirrorPackets(pkts)
				if in+bad != len(pkts) {
					t.Fatalf("batch of %d: %d parsed + %d bad", len(pkts), in, bad)
				}
				fed, pkts = fed+in, pkts[:0]
			}
		}
		if st = c.Status(); st.MirrorsIngested+reg.Value("umon_collect_late_mirrors_total") != int64(fed) {
			t.Errorf("batched=%v: %d ingested + %d late of %d parsed", batched, st.MirrorsIngested, reg.Value("umon_collect_late_mirrors_total"), fed)
		}
		c.Drain()
		return out, st, reg.Value("umon_collect_late_mirrors_total")
	}
	one, stOne, lateOne := run(false)
	many, stMany, lateMany := run(true)
	if !reflect.DeepEqual(one, many) {
		t.Errorf("per-packet ingest emitted %d events, batched %d, or at other positions", len(one), len(many))
	}
	if stOne.MirrorsIngested != stMany.MirrorsIngested || stOne.WatermarkNs != stMany.WatermarkNs || lateOne != lateMany {
		t.Errorf("per-packet %d mirrors / watermark %d / %d late; batched %d / %d / %d",
			stOne.MirrorsIngested, stOne.WatermarkNs, lateOne, stMany.MirrorsIngested, stMany.WatermarkNs, lateMany)
	}
}

// TestSteadyStateMirrorIngestDoesNotAllocate pins the online path's
// allocation contract: with port state and record chunks recycled from
// earlier events, AddMirrorPacket + Poll allocate nothing while no event
// closes (an emitted event allocates its Flows and its place in the log).
func TestSteadyStateMirrorIngestDoesNotAllocate(t *testing.T) {
	const ports = 16
	c := New(Config{GapNs: 50_000, OnEvent: func(analyzer.Event) {}})
	ns := int64(0)
	var wire []byte
	feed := func() {
		ns += 20
		port := int(ns / 20 % ports)
		wire = uevent.AppendMirrorPacket(wire[:0], uevent.MirrorRecord{
			Port:        netsim.PortID{Switch: int16(port / 4), Port: int16(port % 4)},
			TimestampNs: ns,
			OrigBytes:   1058,
			Flow:        key(port*4 + int(ns/640%3)),
		})
		if err := c.AddMirrorPacket(wire); err != nil {
			t.Fatal(err)
		}
	}
	// Earlier events, long enough to leave more chunks than the window needs.
	for i := 0; i < ports*1024; i++ {
		feed()
	}
	ns += 1_000_000
	feed()
	if got := c.Poll(); got != ports {
		t.Fatalf("warm-up closed %d events, want %d", got, ports)
	}
	for i := 0; i < ports; i++ {
		feed() // open an event on every port again
	}
	emitted := c.Status().EventsEmitted
	if allocs := testing.AllocsPerRun(4096, func() { feed(); c.Poll() }); allocs != 0 {
		t.Errorf("AddMirrorPacket + Poll = %v allocs per mirror in steady state, want 0", allocs)
	}
	if got := c.Status().EventsEmitted; got != emitted {
		t.Fatalf("%d events closed inside the window that was to have none", got-emitted)
	}
}

// heldRecords counts the mirror records c's clusterer still holds. Asked
// under another gap, DetectEvents re-folds every port from the records it
// holds, so its events' packets are exactly those records; the second call
// restores the collector's gap.
func heldRecords(c *Collector) (n int) {
	for _, ev := range c.an.DetectEvents(c.cfg.GapNs + 1) {
		n += ev.Packets
	}
	c.an.DetectEvents(c.cfg.GapNs)
	return n
}
