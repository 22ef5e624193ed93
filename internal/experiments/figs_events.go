package experiments

import (
	"fmt"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

// fig14SampleBits are the sampling probabilities of Figure 14's legend.
var fig14SampleBits = []uint{0, 2, 4, 6, 7, 8} // 1/1 … 1/256

// Fig14EventRecall regenerates Figure 14: congestion-event recall and
// captured flows, binned by maximum queue length, across sampling rates,
// for the three workload configurations of the paper.
func Fig14EventRecall(c *Cache) (*Table, error) {
	configs := []SimKey{
		{"WebSearch", 0.35},
		{"FacebookHadoop", 0.15},
		{"FacebookHadoop", 0.35},
	}
	t := &Table{
		ID: "fig14", Title: "Congestion recall and captured flows vs max queue length",
		Header: []string{"workload", "sampling", "queue(KB)", "events", "recall", "avgFlowsCaptured", "avgFlowsTruth"},
	}
	for _, key := range configs {
		sim, err := c.Sim(key)
		if err != nil {
			return nil, err
		}
		for _, bits := range fig14SampleBits {
			rule := uevent.ACLRule{SampleBits: bits}
			mirrors := uevent.Capture(sim.Trace.CELog, rule, 0)
			bins := uevent.Grade(sim.Trace.Episodes, mirrors, 25<<10, 250<<10, 10_000)
			for _, b := range bins {
				if b.Events == 0 {
					continue
				}
				t.AddRow(key.String(), rule.String(),
					fmt.Sprintf("%d-%d", b.LoBytes>>10, b.HiBytes>>10),
					fmt.Sprintf("%d", b.Events),
					fmtF(b.Recall()),
					fmtF(b.AvgFlowsCaptured()),
					fmtF(b.AvgFlowsTruth()))
			}
			t.AddNote("%s %s: recall above KMax(200KB) = %.3f", key, rule,
				uevent.RecallAbove(bins, 200<<10))
		}
	}
	t.AddNote("paper: recall grows with max queue length; above KMax even 1/64 sampling reaches ~99%%")
	return t, nil
}

// Fig15MirrorBandwidth regenerates Figure 15: the busiest switch's mirror
// bandwidth per sampling ratio for the four workload/load combinations.
func Fig15MirrorBandwidth(c *Cache) (*Table, error) {
	configs := []SimKey{
		{"FacebookHadoop", 0.15},
		{"FacebookHadoop", 0.35},
		{"WebSearch", 0.15},
		{"WebSearch", 0.35},
	}
	t := &Table{
		ID: "fig15", Title: "Max mirror bandwidth cost per switch vs sampling ratio",
		Header: []string{"workload", "sampling", "maxSwitch(Mbps)", "totalMirror(MB)"},
	}
	for _, key := range configs {
		sim, err := c.Sim(key)
		if err != nil {
			return nil, err
		}
		prev := -1.0
		for bits := uint(0); bits <= 7; bits++ {
			rule := uevent.ACLRule{SampleBits: bits}
			mirrors := uevent.Capture(sim.Trace.CELog, rule, 0)
			rep := uevent.Bandwidth(mirrors, sim.HorizonNs)
			mbps := rep.MaxBps / 1e6
			t.AddRow(key.String(), rule.String(), fmtF(mbps), fmtF(float64(rep.TotalBytes)/1e6))
			if prev >= 0 && mbps > prev*1.01 {
				t.AddNote("WARNING: bandwidth did not fall with sparser sampling at %s %s", key, rule)
			}
			prev = mbps
		}
	}
	t.AddNote("paper: bandwidth falls ~geometrically with the sampling ratio to 31-82 Mbps/switch at 1/64; Hadoop costs more than WebSearch at equal load")
	return t, nil
}

// Fig10EventReplay regenerates Figure 10: the congestion time-location
// map, the duration distribution and the replay of a long event — run on
// the full µMon pipeline (WaveSketch reports + mirrored packets through
// the collector).
func Fig10EventReplay(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"WebSearch", 0.35})
	if err != nil {
		return nil, err
	}

	// Host side: full-version WaveSketch per host, fed from the egress
	// streams, uploaded as one epoch's reports in host order.
	col := collect.New(collect.Config{})
	for h, recs := range sim.Trace.HostPackets {
		cfg := wavesketch.DefaultFull()
		cfg.Light.K = 64
		full, err := wavesketch.NewFull(cfg)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			full.Update(rec.Flow, measure.WindowOf(rec.Ns), int64(rec.Size))
		}
		full.Seal()
		if err := col.Add(0, report.FromFull(h, 0, full)); err != nil {
			return nil, err
		}
	}
	// Switch side: 1/64-sampled CE mirroring.
	for _, m := range uevent.Capture(sim.Trace.CELog, uevent.ACLRule{SampleBits: 6}, 0) {
		col.AddMirror(m)
	}

	events := col.Drain()
	stats := analyzer.Durations(events)
	pts, legend := analyzer.LocationMap(events)

	t := &Table{
		ID: "fig10", Title: "Congestion detection and replay (WebSearch 35%, sampling 1/64)",
		Header: []string{"metric", "value"},
	}
	t.AddRow("mirrored packets", fmt.Sprintf("%d", col.Status().MirrorsIngested))
	t.AddRow("detected events", fmt.Sprintf("%d", stats.Count))
	t.AddRow("congested links", fmt.Sprintf("%d", len(legend)))
	t.AddRow("duration p50 (µs)", fmtF(float64(stats.P50Ns)/1000))
	t.AddRow("duration p90 (µs)", fmtF(float64(stats.P90Ns)/1000))
	t.AddRow("duration p99 (µs)", fmtF(float64(stats.P99Ns)/1000))
	t.AddRow("duration max (µs)", fmtF(float64(stats.MaxNs)/1000))
	_ = pts

	if len(events) > 0 {
		// Replay the longest event (the Figure 10a arrow).
		best := events[0]
		for _, ev := range events {
			if ev.DurationNs() > best.DurationNs() {
				best = ev
			}
		}
		view := col.Replay(best, 30*measure.WindowNanos)
		t.AddRow("replayed event", best.String())
		flows := best.Flows
		if len(flows) > 3 {
			flows = flows[:3]
		}
		for fi, f := range flows {
			curve := view.Curves[f]
			// Summarize the flow's rate before, during and after the event.
			evStart := int(measure.WindowOf(best.StartNs) - view.WindowStart)
			evEnd := int(measure.WindowOf(best.EndNs) - view.WindowStart)
			t.AddRow(fmt.Sprintf("flow%d rate before/during/after (Gbps)", fi),
				fmt.Sprintf("%s / %s / %s",
					fmtF(meanGbps(curve[:clampIdx(evStart, len(curve))])),
					fmtF(meanGbps(curve[clampIdx(evStart, len(curve)):clampIdx(evEnd, len(curve))])),
					fmtF(meanGbps(curve[clampIdx(evEnd, len(curve)):]))))
		}
	}
	t.AddNote("paper Fig 10: duration CDF concentrated at 100-300 µs; replay shows contending flows converging to lower rates after the event")
	return t, nil
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func meanGbps(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return analyzer.RateGbps(s / float64(len(vals)))
}

// ExtLossForensics grades §5's loss story across sampling rates: a tail
// drop is attributable when a sampled CE mirror preceded it on the same
// port within 200 µs.
func ExtLossForensics(*Cache) (*Table, error) {
	topo, err := netsim.Dumbbell(8)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig(topo)
	cfg.BufferBytes = 300 << 10
	n, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	for s := 0; s < 8; s++ {
		if _, err := n.AddFlow(netsim.FlowSpec{
			Src: s, Dst: 8, Bytes: 8_000_000, StartNs: int64(s) * 10_000,
		}); err != nil {
			return nil, err
		}
	}
	n.Record()
	tr := n.Run(5_000_000)

	t := &Table{
		ID: "ext-loss", Title: "Packet-loss attribution: drops preceded by sampled CE mirrors (same port, ≤200 µs)",
		Header: []string{"sampling", "drops", "attributed", "ratio"},
	}
	for _, bits := range []uint{0, 2, 4, 6, 8} {
		rule := uevent.ACLRule{SampleBits: bits}
		mirrors := uevent.Capture(tr.CELog, rule, 0)
		lf := uevent.AttributeDrops(tr.DropLog, mirrors, 200_000)
		t.AddRow(rule.String(), fmt.Sprintf("%d", lf.Drops), fmt.Sprintf("%d", lf.Attributed), fmtF(lf.Ratio()))
	}
	t.AddNote("§5: \"CE packets are generated prior to the tail drop\" — attribution stays near 1 even under sparse sampling because pre-drop queues sit above KMax (every packet marked)")
	return t, nil
}
