package experiments

import (
	"fmt"

	"umon/internal/analyzer"
	"umon/internal/core"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/uevent"
)

// Extensions beyond the paper's evaluation: the µEvent taxonomy of §5
// names PFC storms and packet loss as events of interest, but the paper
// only evaluates ECN-driven capture. These experiments exercise both on
// the same substrate.

// pfcIncastTrace runs an 8:1 incast against a lossless (PFC) fabric.
func pfcIncastTrace(pfc netsim.PFCConfig, bufferBytes int64, horizonNs int64) (*netsim.Trace, error) {
	topo, err := netsim.Dumbbell(8)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig(topo)
	cfg.BufferBytes = bufferBytes
	cfg.PFC = pfc
	n, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	for s := 0; s < 8; s++ {
		if _, err := n.AddFlow(netsim.FlowSpec{
			Src: s, Dst: 8, Bytes: 8_000_000, StartNs: int64(s) * 20_000,
		}); err != nil {
			return nil, err
		}
	}
	return n.Run(horizonNs), nil
}

// ExtPFCStorms contrasts a lossy fabric with a lossless one under the same
// incast: PFC converts drops into pause storms, which the µMon analyzer
// surfaces from the switch PFC counters.
func ExtPFCStorms(*Cache) (*Table, error) {
	horizon := int64(5_000_000)
	lossy, err := pfcIncastTrace(netsim.PFCConfig{}, 300<<10, horizon)
	if err != nil {
		return nil, err
	}
	lossless, err := pfcIncastTrace(netsim.PFCConfig{Enabled: true, XoffBytes: 150 << 10, XonBytes: 75 << 10}, 300<<10, horizon)
	if err != nil {
		return nil, err
	}
	drops := func(tr *netsim.Trace) int64 {
		var d int64
		for _, f := range tr.Flows {
			d += f.Drops
		}
		return d
	}
	t := &Table{
		ID: "ext-pfc", Title: "Lossless fabrics: tail drops become PFC pause storms (8:1 incast)",
		Header: []string{"fabric", "drops", "pauseFrames", "storms", "stormP50(µs)", "stormMax(µs)"},
	}
	for _, row := range []struct {
		name string
		tr   *netsim.Trace
	}{{"lossy", lossy}, {"lossless(PFC)", lossless}} {
		storms := uevent.PauseStorms(row.tr.PFCLog, 100_000)
		var p50, max int64
		if len(storms) > 0 {
			durs := make([]int64, len(storms))
			for i := range storms {
				durs[i] = storms[i].DurationNs()
				if durs[i] > max {
					max = durs[i]
				}
			}
			p50 = medianInt64(durs)
		}
		t.AddRow(row.name,
			fmt.Sprintf("%d", drops(row.tr)),
			fmt.Sprintf("%d", countPauses(row.tr.PFCLog)),
			fmt.Sprintf("%d", len(storms)),
			fmtF(float64(p50)/1000), fmtF(float64(max)/1000))
	}
	t.AddNote("§5 names PFC storms as µEvents; with PFC enabled the incast produces zero drops but sustained pause storms that the analyzer clusters per switch")
	return t, nil
}

func countPauses(log []netsim.PFCRecord) int {
	n := 0
	for _, r := range log {
		if r.Pause {
			n++
		}
	}
	return n
}

func medianInt64(vals []int64) int64 {
	if len(vals) == 0 {
		return 0
	}
	// Insertion sort: the slices here are small.
	for i := 1; i < len(vals); i++ {
		for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
			vals[j], vals[j-1] = vals[j-1], vals[j]
		}
	}
	return vals[len(vals)/2]
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

// ExtDedupBatch quantifies §5's programmable-switch enhancements: exact
// dedup of multi-hop duplicate observations plus compact batch reporting,
// at unchanged event recall.
func ExtDedupBatch(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.35})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ext-dedup", Title: "Dedup + batch reporting vs plain ACL mirroring (Hadoop 35%)",
		Header: []string{"sampling", "strategy", "records", "reportMB", "recall>KMax"},
	}
	for _, bits := range []uint{0, 6} {
		rule := uevent.ACLRule{SampleBits: bits}
		mirrors := uevent.Capture(sim.Trace.CELog, rule, 0)
		deduped := uevent.Dedup(mirrors, 1<<16, 1_000_000)
		_, batchBytes := uevent.Batch(deduped, 0)

		recall := func(ms []uevent.MirrorRecord) float64 {
			bins := uevent.Grade(sim.Trace.Episodes, ms, 25<<10, 250<<10, 10_000)
			return uevent.RecallAbove(bins, 200<<10)
		}
		var fullBytes, dedupBytes int64
		for _, m := range mirrors {
			fullBytes += int64(m.WireBytes)
		}
		for _, m := range deduped {
			dedupBytes += int64(m.WireBytes)
		}
		t.AddRow(rule.String(), "mirror", fmt.Sprintf("%d", len(mirrors)),
			fmtF(float64(fullBytes)/1e6), fmtF(recall(mirrors)))
		t.AddRow(rule.String(), "mirror+dedup", fmt.Sprintf("%d", len(deduped)),
			fmtF(float64(dedupBytes)/1e6), fmtF(recall(deduped)))
		t.AddRow(rule.String(), "dedup+batch", fmt.Sprintf("%d", len(deduped)),
			fmtF(float64(batchBytes)/1e6), fmtF(recall(deduped)))
	}
	t.AddNote("dedup removes the multi-hop duplicate observations (a CE packet is mirrored at every switch it crosses); batching replaces full copies with 26 B records — recall above KMax is unchanged")
	return t, nil
}

// ExtDutyCycle sweeps the §9 cost/quality knob: measuring only a fraction
// of reporting periods cuts upload bandwidth proportionally while the
// active epochs keep full microsecond fidelity.
func ExtDutyCycle(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ext-duty", Title: "Duty-cycled monitoring: report bandwidth vs packet coverage (Hadoop 15%)",
		Header: []string{"duty", "coverage", "avgReportMbpsPerHost"},
	}
	for _, duty := range [][2]int64{{1, 1}, {1, 2}, {1, 4}, {1, 8}} {
		var totalBytes int64
		var coverage float64
		hosts := len(sim.Trace.HostPackets)
		for h, recs := range sim.Trace.HostPackets {
			hmCfg := core.StreamMonitorConfig{HostMonitorConfig: core.DefaultHostMonitor()}
			hmCfg.PeriodNs = 2_000_000
			inner, err := core.NewStreamHostMonitor(h, hmCfg, core.FuncSink(func(core.SealedReport) error { return nil }))
			if err != nil {
				return nil, err
			}
			d := core.NewDutyCycledMonitor(inner, duty[0], duty[1])
			for _, rec := range recs {
				if err := d.OnPacket(rec.Flow, rec.Ns, int(rec.Size)); err != nil {
					return nil, err
				}
			}
			if err := d.Close(); err != nil {
				return nil, err
			}
			b, _ := inner.Stats()
			totalBytes += b
			coverage += d.Coverage()
		}
		mbps := float64(totalBytes) * 8 / float64(sim.HorizonNs) * 1e9 / 1e6 / float64(hosts)
		t.AddRow(fmt.Sprintf("%d/%d", duty[0], duty[1]), fmtF(coverage/float64(hosts)), fmtF(mbps))
	}
	t.AddNote("bandwidth falls roughly with the duty ratio; active epochs keep full 8.192 µs fidelity (§9, after Yaseen et al.)")
	return t, nil
}

// ExtImbalance demonstrates §5's load-imbalance µEvent: ECMP-polarized
// flows congest one uplink while its siblings idle; the analyzer flags the
// switch from the mirror stream plus the port inventory.
func ExtImbalance(*Cache) (*Table, error) {
	topo, err := netsim.LeafSpine(2, 2, 4)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig(topo)
	n, err := netsim.New(cfg)
	if err != nil {
		return nil, err
	}
	// Polarized tenant: source ports chosen so every flow hashes onto
	// spine slot 0.
	added := 0
	for sp := uint16(20000); sp < 40000 && added < 6; sp++ {
		k := flowkey.Key{
			SrcIP: netsim.HostIP(added % 4), DstIP: netsim.HostIP(4 + added%4),
			SrcPort: sp, DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
		}
		if analyzer.ECMPSelect(k, 2) != 0 {
			continue
		}
		if _, err := n.AddFlow(netsim.FlowSpec{
			Src: added % 4, Dst: 4 + added%4, Bytes: 10_000_000, SrcPort: sp,
		}); err != nil {
			return nil, err
		}
		added++
	}
	tr := n.Run(4_000_000)

	a := analyzer.New()
	a.AddMirrors(uevent.Capture(tr.CELog, uevent.ACLRule{SampleBits: 2}, 0))
	ports := make(map[int16]int)
	for sw := 0; sw < topo.Switches; sw++ {
		ports[int16(sw)] = len(topo.Ports[topo.Hosts+sw])
	}
	findings := a.DetectImbalanceWithPorts(16, 2, ports)

	t := &Table{
		ID: "ext-imbalance", Title: "ECMP load-imbalance detection (leaf-spine, polarized hash)",
		Header: []string{"switch", "hottestPort", "skewScore", "portActivity"},
	}
	for _, f := range findings {
		t.AddRow(topo.Name(netsim.NodeID(topo.Hosts+int(f.Switch))),
			fmt.Sprintf("%d", f.HottestPort()),
			fmtF(f.Score),
			fmt.Sprintf("%v", f.PortPackets))
	}
	t.AddNote("%d polarized flows, %d CE observations; §5 names load imbalance a µEvent — the skew score is max/mean mirror activity over the switch's ports", added, len(tr.CELog))
	if len(findings) == 0 {
		t.AddNote("WARNING: no imbalance flagged")
	}
	return t, nil
}
