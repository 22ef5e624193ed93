package core

import (
	"errors"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
)

func testKey(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: netsim.HostIP(0), DstIP: netsim.HostIP(1),
		SrcPort: uint16(10000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// countSink counts shipped reports and discards them.
type countSink struct{ reports int }

func (c *countSink) Ship(SealedReport) error { c.reports++; return nil }
func (c *countSink) Close() error            { return nil }

func TestHostMonitorPeriods(t *testing.T) {
	var got countSink
	m, err := NewStreamHostMonitor(0, streamCfg(1_000_000), &got)
	if err != nil {
		t.Fatal(err)
	}
	f := testKey(1)
	// Packets across 3 periods.
	for ns := int64(0); ns < 2_500_000; ns += 10_000 {
		if err := m.OnPacket(f, ns, 1058); err != nil {
			t.Fatal(err)
		}
	}
	if got.reports != 2 {
		t.Fatalf("reports shipped mid-stream = %d, want 2", got.reports)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got.reports != 3 {
		t.Fatalf("reports after close = %d, want 3", got.reports)
	}
	bytes, reports := m.Stats()
	if reports != 3 || bytes <= 0 {
		t.Errorf("stats = %d bytes / %d reports", bytes, reports)
	}
}

func TestHostMonitorValidation(t *testing.T) {
	if _, err := NewStreamHostMonitor(0, StreamMonitorConfig{}, &countSink{}); err == nil {
		t.Error("PeriodNs=0 must be rejected")
	}
	var got countSink
	m, _ := NewStreamHostMonitor(0, streamCfg(1_000_000), &got)
	if err := m.Close(); err != nil {
		t.Errorf("close before any packet: %v", err)
	}
	if got.reports != 0 {
		t.Errorf("a monitor that saw no packet shipped %d reports", got.reports)
	}
}

func TestHostMonitorIdleGapSkipsPeriods(t *testing.T) {
	var got countSink
	m, _ := NewStreamHostMonitor(0, streamCfg(1_000_000), &got)
	m.OnPacket(testKey(1), 100, 1000)
	// Next packet 5 periods later: all intervening periods seal.
	m.OnPacket(testKey(1), 5_100_000, 1000)
	if got.reports != 5 {
		t.Errorf("reports across idle gap = %d, want 5", got.reports)
	}
}

func TestSwitchMonitorSamplesAndEncodes(t *testing.T) {
	var wires [][]byte
	sm := NewSwitchMonitor(4, SwitchMonitorConfig{Rule: uevent.ACLRule{SampleBits: 2}}, func(b []byte) {
		// b is the monitor's scratch buffer; copy to retain past the call.
		wires = append(wires, append([]byte(nil), b...))
	})
	f := testKey(1)
	for psn := uint32(0); psn < 16; psn++ {
		sm.OnCEPacket(1, int64(psn)*1000, f, psn, 1058)
	}
	if len(wires) != 4 { // PSNs 0,4,8,12
		t.Fatalf("mirrored %d, want 4", len(wires))
	}
	for i, b := range wires {
		m, err := uevent.DecodeMirrorPacket(b)
		if err != nil || m.PSN != uint32(4*i) || m.OrigBytes != 1058 || m.WireBytes != 1058 || m.Port.Switch != 4 {
			t.Errorf("mirror %d = %+v (err %v)", i, m, err)
		}
	}
}

// TestDeployEndToEnd runs a full µMon deployment over a congested
// dumbbell: reports and mirrors must reach the collector through the wire
// formats, and the replayed event must carry rate curves.
func TestDeployEndToEnd(t *testing.T) {
	topo, _ := netsim.Dumbbell(2)
	n, _ := netsim.New(netsim.DefaultConfig(topo))
	cfg := DefaultSystem()
	cfg.Host.PeriodNs = 2_000_000
	cfg.Switch.Rule = uevent.ACLRule{SampleBits: 1}
	sys, err := Deploy(n, topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 2, Bytes: 10_000_000, StartNs: 0})
	n.AddFlow(netsim.FlowSpec{Src: 1, Dst: 2, Bytes: 10_000_000, StartNs: 100_000})
	n.Run(5_000_000)
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}

	if sys.Collector.Status().MirrorsIngested == 0 {
		t.Fatal("no mirrors reached the collector")
	}
	if bw := sys.HostBandwidthBps(5_000_000); bw <= 0 {
		t.Error("host bandwidth must be positive")
	}
	if sys.HostBandwidthBps(0) != 0 {
		t.Error("zero duration bandwidth must be 0")
	}

	events := sys.Collector.Events()
	if len(events) == 0 {
		t.Fatal("no events detected")
	}
	best := events[0]
	for _, ev := range events {
		if ev.Packets > best.Packets {
			best = ev
		}
	}
	view := sys.Collector.Replay(best, 30*measure.WindowNanos)
	var activity float64
	for _, c := range view.Curves {
		for _, v := range c {
			activity += v
		}
	}
	if activity == 0 {
		t.Error("replay produced silent curves")
	}
}

// TestWireKeepsTheFirstError: a failing sink and a failing mirror consumer
// both land in the one error slot, at a sharded network's concurrency, and
// Finish returns the first of them.
func TestWireKeepsTheFirstError(t *testing.T) {
	topo, _ := netsim.Dumbbell(2)
	simCfg := netsim.DefaultConfig(topo)
	simCfg.Shards = 2
	n, _ := netsim.New(simCfg)
	cfg := DefaultSystem()
	cfg.Host.PeriodNs = 500_000
	cfg.Switch.Rule = uevent.ACLRule{}
	errMirror := errors.New("mirror consumer down")
	var mirrors atomic.Int64
	sys, err := Wire(n, topo, cfg, &errSink{}, func([]byte) error {
		mirrors.Add(1)
		return errMirror
	})
	if err != nil {
		t.Fatal(err)
	}
	var ceEgresses atomic.Int64
	wired := n.OnSwitchCE
	n.OnSwitchCE = func(sw, port int16, pkt *netsim.Packet, now int64) {
		ceEgresses.Add(1)
		wired(sw, port, pkt, now)
	}
	n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 2, Bytes: 10_000_000, StartNs: 0})
	n.AddFlow(netsim.FlowSpec{Src: 1, Dst: 2, Bytes: 10_000_000, StartNs: 100_000})
	n.Run(3_000_000)
	if err := sys.Finish(); !errors.Is(err, errSinkDown) && !errors.Is(err, errMirror) {
		t.Errorf("Finish returned %v, want the sink's or the mirror consumer's error", err)
	}
	// The rule mirrors every CE mark.
	if p := ceEgresses.Load(); p == 0 || p != mirrors.Load() {
		t.Errorf("switches saw %d CE egresses, the consumer %d mirrors", p, mirrors.Load())
	}
	if sys.ReportBytes() == 0 {
		t.Error("no report was sealed")
	}
}

// TestDeployReportsAreQueryable verifies that the flows measured through
// the period-rolling host monitors remain queryable at the collector with
// sensible totals.
func TestDeployReportsAreQueryable(t *testing.T) {
	topo, _ := netsim.Dumbbell(1)
	n, _ := netsim.New(netsim.DefaultConfig(topo))
	cfg := DefaultSystem()
	cfg.Host.PeriodNs = 1_000_000
	sys, _ := Deploy(n, topo, cfg)
	id, _ := n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 1, Bytes: 3_000_000, StartNs: 0, FixedRateBps: 10e9})
	tr := n.Run(5_000_000)
	if err := sys.Finish(); err != nil {
		t.Fatal(err)
	}
	key := tr.Flows[id].Key
	est := sys.Collector.QueryFlow(key, 0, 5_000_000/measure.WindowNanos)
	var total float64
	for _, v := range est {
		total += v
	}
	sent := float64(tr.Flows[id].TxBytes)
	if total < sent*0.9 || total > sent*1.1 {
		t.Errorf("queried total %v vs sent %v", total, sent)
	}
}

// TestDeployMatchesBatch holds Deploy's collector to the batch analyzer fed
// the same shipped reports and mirrors, taken from a second, identical run
// wired to a sink and a mirror consumer that feed it: the events the
// collector emitted online equal DetectEvents', and every flow's query over
// the whole run matches bit for bit.
func TestDeployMatchesBatch(t *testing.T) {
	simulate := func(wire func(*netsim.Network, *netsim.Topology, SystemConfig) (*System, error)) (*System, *netsim.Trace) {
		topo, _ := netsim.Dumbbell(3)
		n, _ := netsim.New(netsim.DefaultConfig(topo))
		cfg := DefaultSystem()
		cfg.Host.PeriodNs = 1_000_000
		cfg.Switch.Rule = uevent.ACLRule{SampleBits: 1}
		sys, err := wire(n, topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for src := 0; src < 3; src++ {
			n.AddFlow(netsim.FlowSpec{Src: src, Dst: 3, Bytes: 5_000_000, StartNs: int64(src) * 300_000})
		}
		tr := n.Run(4_000_000)
		if err := sys.Finish(); err != nil {
			t.Fatal(err)
		}
		return sys, tr
	}
	sys, tr := simulate(Deploy)
	batch := analyzer.New()
	simulate(func(n *netsim.Network, topo *netsim.Topology, cfg SystemConfig) (*System, error) {
		return Wire(n, topo, cfg, FuncSink(func(r SealedReport) error {
			rep, err := report.DecodeBytes(r.Encoded)
			if err != nil {
				return err
			}
			return batch.AddReport(rep)
		}), batch.AddMirrorPacket)
	})

	events, want := sys.Collector.Events(), batch.DetectEvents(50_000)
	if len(want) < 2 || !reflect.DeepEqual(events, want) {
		t.Fatalf("the collector emitted %d events, the batch analyzer detects %d (want ≥ 2, equal)", len(events), len(want))
	}
	if epochs, _ := sys.Collector.Window(); len(epochs) < 4 {
		t.Errorf("the run spans %d epochs, want every one of ≥ 4 resident", len(epochs))
	}
	to := int64(4_000_000 / measure.WindowNanos)
	for _, fl := range tr.Flows {
		got, want := sys.Collector.QueryFlow(fl.Key, 0, to), batch.QueryFlow(fl.Key, 0, to)
		if !slices.Equal(got, want) || slices.Max(want) == 0 {
			t.Errorf("flow %s: the collector and the batch analyzer answer differently (or nothing)", fl.Key)
		}
	}
}
