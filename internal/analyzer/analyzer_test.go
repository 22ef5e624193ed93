package analyzer

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

func key(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000101 + uint32(i), DstIP: 0x0a000f01,
		SrcPort: uint16(40000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

func mirror(ns int64, sw, port int16, f flowkey.Key) uevent.MirrorRecord {
	return uevent.MirrorRecord{
		Port: netsim.PortID{Switch: sw, Port: port}, TimestampNs: ns,
		OrigBytes: 1058, WireBytes: 1058, Flow: f,
	}
}

func TestDetectEventsClustersByGap(t *testing.T) {
	a := New()
	f1, f2 := key(1), key(2)
	// Two bursts on sw0/p0 separated by 1 ms, one burst on sw1/p1.
	for i := int64(0); i < 5; i++ {
		a.AddMirror(mirror(1000+i*10_000, 0, 0, f1))
	}
	for i := int64(0); i < 3; i++ {
		a.AddMirror(mirror(2_000_000+i*10_000, 0, 0, f2))
	}
	a.AddMirror(mirror(500_000, 1, 1, f1))
	if a.Mirrors() != 9 {
		t.Fatalf("mirrors = %d, want 9", a.Mirrors())
	}

	events := a.DetectEvents(50_000)
	if len(events) != 3 {
		t.Fatalf("events = %d, want 3: %v", len(events), events)
	}
	// Sorted by start time.
	if events[0].StartNs != 1000 || events[0].Packets != 5 {
		t.Errorf("first event = %+v", events[0])
	}
	if events[1].Port != (netsim.PortID{Switch: 1, Port: 1}) {
		t.Errorf("second event port = %v", events[1].Port)
	}
	if events[2].Packets != 3 || events[2].Flows[0] != f2 {
		t.Errorf("third event = %+v", events[2])
	}
	if events[0].DurationNs() != 40_000 {
		t.Errorf("duration = %d, want 40000", events[0].DurationNs())
	}
	if events[0].String() == "" {
		t.Error("empty String()")
	}
}

func TestDetectEventsRanksFlowsByPackets(t *testing.T) {
	a := New()
	big, small := key(1), key(2)
	for i := int64(0); i < 10; i++ {
		a.AddMirror(mirror(i*1000, 0, 0, big))
	}
	a.AddMirror(mirror(5_000, 0, 0, small))
	ev := a.DetectEvents(0)[0]
	if len(ev.Flows) != 2 || ev.Flows[0] != big {
		t.Errorf("flow ranking = %v, want big flow first", ev.Flows)
	}
}

func TestAddMirrorPacket(t *testing.T) {
	a := New()
	rec := mirror(777_000, 2, 1, key(4))
	if err := a.AddMirrorPacket(uevent.AppendMirrorPacket(nil, rec)); err != nil {
		t.Fatal(err)
	}
	ev := a.DetectEvents(0)
	if len(ev) != 1 || ev[0].Port != rec.Port || ev[0].StartNs != 777_000 {
		t.Errorf("decoded event = %+v", ev)
	}
	if err := a.AddMirrorPacket([]byte{1, 2, 3}); err == nil {
		t.Error("garbage packet must be rejected")
	}
}

func TestReplayQueriesEventFlows(t *testing.T) {
	// Build a host report with one flow ramping down mid-trace, then
	// replay an event placed at the rate drop.
	s, _ := wavesketch.NewBasic(wavesketch.Default(64))
	f := key(1)
	for w := int64(0); w < 256; w++ {
		v := int64(8192) // ~8 Gbps
		if w >= 128 {
			v = 2048
		}
		s.Update(f, w, v)
	}
	s.Seal()

	a := New()
	a.AddReport(report.FromBasic(0, 0, s))
	evNs := int64(128) * measure.WindowNanos
	a.AddMirror(mirror(evNs, 0, 0, f))
	events := a.DetectEvents(0)
	view := a.Replay(events[0], 20*measure.WindowNanos)
	curve, ok := view.Curves[f]
	if !ok {
		t.Fatal("replay lacks the event flow")
	}
	if view.Windows != len(curve) {
		t.Fatalf("view windows %d != curve len %d", view.Windows, len(curve))
	}
	// The curve must show the drop: early windows ≈ 8192, late ≈ 2048.
	first := curve[0]
	last := curve[len(curve)-1]
	if math.Abs(first-8192) > 500 || math.Abs(last-2048) > 500 {
		t.Errorf("replay edges = %v / %v, want ≈8192 / ≈2048", first, last)
	}
	// Rate conversion: 8192 B per 8.192 µs = 8 Gbps.
	if got := RateGbps(8192); math.Abs(got-8) > 1e-9 {
		t.Errorf("RateGbps(8192) = %v, want 8", got)
	}
}

func TestQueryFlowMergesReports(t *testing.T) {
	mk := func(host int, f flowkey.Key, w int64, v int64) *report.HostReport {
		s, _ := wavesketch.NewBasic(wavesketch.Default(16))
		s.Update(f, w, v)
		s.Seal()
		return report.FromBasic(host, 0, s)
	}
	a := New()
	a.AddReport(mk(0, key(1), 10, 100))
	a.AddReport(mk(1, key(2), 12, 200))
	got := a.QueryFlow(key(1), 10, 13)
	if got[0] != 100 || got[1] != 0 {
		t.Errorf("flow 1 = %v", got)
	}
	got = a.QueryFlow(key(2), 10, 13)
	if got[2] != 200 {
		t.Errorf("flow 2 = %v", got)
	}
	if got := a.QueryFlow(key(9), 5, 3); len(got) != 0 {
		t.Errorf("inverted range should be empty")
	}
}

// TestQueryFlowRoutesByTime pins the batch plane's share of time routing:
// four reports that all might see the flow, a period apart; a query of one
// period visits that report alone and answers what the merge over every
// report answers, bit for bit.
func TestQueryFlowRoutesByTime(t *testing.T) {
	a := New()
	f := key(1)
	for h := 0; h < 4; h++ {
		s, _ := wavesketch.NewBasic(wavesketch.Default(16))
		s.Update(f, int64(256*h+10), int64(100*(h+1)))
		s.Seal()
		a.AddReport(report.FromBasic(h, 0, s))
	}
	if n := routed(a, f); n != 4 {
		t.Fatalf("routed to %d reports, want all 4 over all of time", n)
	}
	visited := 0
	for _, r := range [][2]int64{{512, 768}, {500, 530}, {0, 1024}, {2000, 2100}, {700, 700}} {
		want := make([]float64, r[1]-r[0])
		for _, q := range a.reports.Queryables() {
			for i, v := range q.QueryRange(f, r[0], r[1]) {
				want[i] = max(want[i], v)
			}
		}
		got := a.QueryFlow(f, r[0], r[1])
		visited += a.reports.MergeFlow(make([]float64, r[1]-r[0]), f, r[0], r[1])
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("[%d, %d) window %d: %v, un-routed merge %v", r[0], r[1], r[0]+int64(i), got[i], want[i])
			}
		}
	}
	// One report each for the first two ranges, all four for the third.
	if visited != 1+1+4 {
		t.Errorf("five queries visited %d reports, want 6", visited)
	}
}

// routed counts the reports a query for f over all of time visits.
func routed(a *Analyzer, f flowkey.Key) int {
	return len(a.reports.Route(f, math.MinInt64, math.MaxInt64, nil))
}

func TestDurations(t *testing.T) {
	if st := Durations(nil); st.Count != 0 {
		t.Error("empty stats should have zero count")
	}
	var events []Event
	for i := int64(1); i <= 100; i++ {
		events = append(events, Event{StartNs: 0, EndNs: i * 1000})
	}
	st := Durations(events)
	if st.Count != 100 || st.MaxNs != 100_000 {
		t.Errorf("count/max = %d/%d", st.Count, st.MaxNs)
	}
	if st.P50Ns < 40_000 || st.P50Ns > 60_000 {
		t.Errorf("p50 = %d", st.P50Ns)
	}
	if st.P99Ns < st.P90Ns || st.P90Ns < st.P50Ns {
		t.Error("quantiles must be monotone")
	}
}

func TestLocationMap(t *testing.T) {
	events := []Event{
		{Port: netsim.PortID{Switch: 0, Port: 1}, StartNs: 100},
		{Port: netsim.PortID{Switch: 2, Port: 0}, StartNs: 200},
		{Port: netsim.PortID{Switch: 0, Port: 1}, StartNs: 300},
	}
	pts, legend := LocationMap(events)
	if len(pts) != 3 || len(legend) != 2 {
		t.Fatalf("points/legend = %d/%d, want 3/2", len(pts), len(legend))
	}
	if pts[0].LinkID != pts[2].LinkID {
		t.Error("same port must map to the same link id")
	}
	if legend[pts[1].LinkID] != (netsim.PortID{Switch: 2, Port: 0}) {
		t.Error("legend mismatch")
	}
}

// TestEndToEndReplayFromSimulation wires the whole pipeline: simulate a
// contended bottleneck, measure at hosts with WaveSketch, capture µEvents,
// ship both to the analyzer, and replay the biggest event.
func TestEndToEndReplayFromSimulation(t *testing.T) {
	topo, _ := netsim.Dumbbell(2)
	cfg := netsim.DefaultConfig(topo)
	n, _ := netsim.New(cfg)

	sketches := make([]*wavesketch.Basic, topo.Hosts)
	for h := range sketches {
		sketches[h], _ = wavesketch.NewBasic(wavesketch.Default(128))
	}
	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		sketches[host].Update(pkt.Flow, measure.WindowOf(now), int64(pkt.Size))
	}
	n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 2, Bytes: 8_000_000, StartNs: 0})
	n.AddFlow(netsim.FlowSpec{Src: 1, Dst: 2, Bytes: 8_000_000, StartNs: 200_000})
	tr := n.Run(4_000_000)
	if len(tr.CELog) == 0 {
		t.Skip("no congestion to replay")
	}

	a := New()
	for h, s := range sketches {
		s.Seal()
		a.AddReport(report.FromBasic(h, 0, s))
	}
	a.AddMirrors(uevent.Capture(tr.CELog, uevent.ACLRule{SampleBits: 2}, 0))

	events := a.DetectEvents(100_000)
	if len(events) == 0 {
		t.Fatal("no events detected from mirrors")
	}
	// Replay the event with the most packets.
	best := events[0]
	for _, ev := range events {
		if ev.Packets > best.Packets {
			best = ev
		}
	}
	view := a.Replay(best, 50*measure.WindowNanos)
	if len(view.Curves) == 0 {
		t.Fatal("replay has no curves")
	}
	var activity float64
	for _, c := range view.Curves {
		for _, v := range c {
			activity += v
		}
	}
	if activity == 0 {
		t.Error("replayed curves are silent around a congestion event")
	}
}

// TestRankFlowsOrder pins Event.Flows order — packets descending, ties by
// the printed key (a string order: ":1000" sorts before ":999") — against
// the comparator that printed both keys on every tie.
func TestRankFlowsOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 50; round++ {
		pkts := make(map[flowkey.Key]int)
		for i, n := 0, 1+rng.Intn(200); i < n; i++ {
			k := flowkey.Key{
				SrcIP: 0x0a000000 | uint32(rng.Intn(300)), DstIP: 0x0a000100 | uint32(rng.Intn(4)),
				SrcPort: uint16(990 + rng.Intn(20)), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
			}
			pkts[k] = 1 + rng.Intn(4) // few distinct counts: most comparisons tie
		}
		want := make([]flowkey.Key, 0, len(pkts))
		for k := range pkts {
			want = append(want, k)
		}
		sort.Slice(want, func(i, j int) bool {
			if pkts[want[i]] != pkts[want[j]] {
				return pkts[want[i]] > pkts[want[j]]
			}
			return want[i].String() < want[j].String()
		})
		// Count through flowCounts, the packets of the flows interleaved.
		var c flowCounts
		for left := len(pkts); left > 0; {
			left = 0
			for k, n := range pkts {
				if j, ok := c.idx[k]; !ok || int(c.fs[j].n) < n {
					c.inc(k)
					left++
				}
			}
		}
		if got := rankFlows(c.fs); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: rankFlows order differs from the printed-key order", round)
		}
	}
}

// TestNTPErrorBreaksAlignment is the negative control: millisecond NTP
// error lands events tens of windows away, which is why the paper requires
// PTP-class synchronization.
func TestNTPErrorBreaksAlignment(t *testing.T) {
	trueStart := int64(5_000_000)
	a := New()
	// 2 ms of uncorrected offset.
	a.AddMirror(uevent.MirrorRecord{
		Port: netsim.PortID{Switch: 0, Port: 0}, TimestampNs: trueStart + 2_000_000,
		OrigBytes: 1058, WireBytes: 1058, Flow: key(1),
	})
	ev := a.DetectEvents(0)[0]
	d := measure.WindowOf(ev.StartNs) - measure.WindowOf(trueStart)
	if d <= 2 {
		t.Errorf("NTP-class error should exceed the window bound, got %d", d)
	}
}
