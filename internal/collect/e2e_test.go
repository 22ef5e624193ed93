package collect_test

import (
	"bytes"
	"reflect"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/core"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
)

// TestStreamingPipelineMatchesBatch is the end-to-end streaming smoke
// test: one simulated workload feeds both deployment planes at once —
// the batch plane (host monitors handing every report to an analyzer) and
// the streaming plane (host monitors sealing epochs through a framed
// StreamSink, mirrors ingested online by a windowed Collector). The
// collector's
// drained event list must equal the batch analyzer's DetectEvents, and
// replayed flow curves must agree.
func TestStreamingPipelineMatchesBatch(t *testing.T) {
	const (
		periodNs = 1_000_000
		gapNs    = 50_000
		simNs    = 5_000_000
	)
	topo, err := netsim.Dumbbell(2)
	if err != nil {
		t.Fatal(err)
	}
	n, err := netsim.New(netsim.DefaultConfig(topo))
	if err != nil {
		t.Fatal(err)
	}

	// Batch plane.
	batch := analyzer.New()
	batchReports := 0
	hostCfg := core.DefaultHostMonitor()
	hostCfg.PeriodNs = periodNs
	var batchHosts []*core.StreamHostMonitor
	toBatch := core.FuncSink(func(r core.SealedReport) error {
		rep, err := report.DecodeBytes(r.Encoded)
		if err != nil {
			return err
		}
		batch.AddReport(rep)
		batchReports++
		return nil
	})
	for h := 0; h < topo.Hosts; h++ {
		hm, err := core.NewStreamHostMonitor(h, core.StreamMonitorConfig{HostMonitorConfig: hostCfg}, toBatch)
		if err != nil {
			t.Fatal(err)
		}
		batchHosts = append(batchHosts, hm)
	}

	// Streaming plane: the hosts ship framed epochs into one shared stream;
	// the collector eats mirrors online as the switches emit them.
	reg := telemetry.NewRegistry()
	var streamFile bytes.Buffer
	sink, err := core.NewStreamSink(&streamFile)
	if err != nil {
		t.Fatal(err)
	}
	var streamHosts []*core.StreamHostMonitor
	for h := 0; h < topo.Hosts; h++ {
		sm, err := core.NewStreamHostMonitor(h, core.StreamMonitorConfig{HostMonitorConfig: hostCfg}, sink)
		if err != nil {
			t.Fatal(err)
		}
		streamHosts = append(streamHosts, sm)
	}
	coll := collect.New(collect.Config{
		WindowEpochs: 16,
		EpochNs:      periodNs,
		GapNs:        gapNs,
		Stats:        collect.NewStats(reg),
	})

	swCfg := core.SwitchMonitorConfig{Rule: uevent.ACLRule{SampleBits: 1}}
	var switches []*core.SwitchMonitor
	for sw := 0; sw < topo.Switches; sw++ {
		switches = append(switches, core.NewSwitchMonitor(int16(sw), swCfg, func(encoded []byte) {
			if err := batch.AddMirrorPacket(encoded); err != nil {
				t.Error(err)
			}
			if err := coll.AddMirrorPacket(encoded); err != nil {
				t.Error(err)
			}
		}))
	}

	n.OnHostEgress = func(host int, pkt *netsim.Packet, now int64) {
		if err := batchHosts[host].OnPacket(pkt.Flow, now, int(pkt.Size)); err != nil {
			t.Error(err)
		}
		if err := streamHosts[host].OnPacket(pkt.Flow, now, int(pkt.Size)); err != nil {
			t.Error(err)
		}
	}
	n.OnSwitchCE = func(sw, port int16, pkt *netsim.Packet, now int64) {
		switches[sw].OnCEPacket(port, now, pkt.Flow, pkt.PSN, pkt.Size)
	}

	// Two incast bursts with a quiet valley between them: the second
	// burst's mirrors push the watermark past the first burst's events, so
	// those must emit online, before Drain.
	n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 2, Bytes: 5_000_000, StartNs: 0})
	n.AddFlow(netsim.FlowSpec{Src: 1, Dst: 2, Bytes: 5_000_000, StartNs: 100_000})
	n.AddFlow(netsim.FlowSpec{Src: 0, Dst: 2, Bytes: 5_000_000, StartNs: 3_000_000})
	n.AddFlow(netsim.FlowSpec{Src: 1, Dst: 2, Bytes: 5_000_000, StartNs: 3_050_000})
	n.Run(simNs)

	for _, hm := range batchHosts {
		if err := hm.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, sm := range streamHosts {
		if err := sm.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}

	// Ship the framed stream into the collector's window.
	nReports, bad, err := coll.IngestStream(bytes.NewReader(streamFile.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("stream ingest: %v (bad %d)", err, bad)
	}
	if nReports != batchReports {
		t.Fatalf("streamed %d reports, batch uploaded %d", nReports, batchReports)
	}

	// Some events must close online — before Drain force-closes the tail.
	coll.Poll()
	emittedOnline := reg.Value("umon_collect_events_emitted_total")
	if emittedOnline == 0 {
		t.Error("no online emission observed; everything waited for Drain")
	}

	// Event equivalence: online detection + drain == batch clustering.
	want := batch.DetectEvents(gapNs)
	got := coll.Drain()
	if len(want) == 0 {
		t.Fatal("workload produced no events; test is vacuous")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streaming events diverge from batch:\n got %d: %+v\nwant %d: %+v",
			len(got), got, len(want), want)
	}
	// Replay equivalence on the busiest event.
	best := got[0]
	for _, ev := range got {
		if ev.Packets > best.Packets {
			best = ev
		}
	}
	bv := analyzer.ReplayWith(best, 30_000, batch.QueryFlow)
	cv := coll.Replay(best, 30_000)
	if bv.WindowStart != cv.WindowStart || bv.Windows != cv.Windows {
		t.Fatalf("replay spans differ: batch [%d,+%d] collector [%d,+%d]",
			bv.WindowStart, bv.Windows, cv.WindowStart, cv.Windows)
	}
	for f, wantCurve := range bv.Curves {
		if !reflect.DeepEqual(cv.Curves[f], wantCurve) {
			t.Errorf("flow %s: replay curves diverge", f)
		}
	}

	// The streaming plane's telemetry saw the traffic.
	if reg.Value("umon_collect_mirrors_ingested_total") == 0 {
		t.Error("no mirrors ingested")
	}
}
