package experiments

import (
	"bytes"
	"fmt"

	"umon/internal/analyzer"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// Fig01Granularity regenerates Figure 1: the same contended flow observed
// at ~10 µs and at 10 ms granularity — the fine view shows peaks, troughs
// and recoveries that the coarse view averages away.
func Fig01Granularity(c *Cache) (*Table, error) {
	_, id, tr, err := contendedFlowSim(10_000_000)
	if err != nil {
		return nil, err
	}
	// Build the exact fine-grained series of the measured flow.
	windows := int(10_000_000 / measure.WindowNanos)
	fine := make([]float64, windows)
	for _, rec := range tr.HostPackets[0] {
		if rec.FlowID != id {
			continue
		}
		w := int(measure.WindowOf(rec.Ns))
		if w < windows {
			fine[w] += float64(rec.Size)
		}
	}
	coarseSpan := int(10_000_000 / measure.WindowNanos) // one 10 ms bucket
	var coarse float64
	for _, v := range fine {
		coarse += v
	}
	coarseRate := analyzer.RateGbps(coarse / float64(coarseSpan))

	t := &Table{
		ID: "fig1", Title: "Flow rate at different timescales (contended DCQCN flow)",
		Header: []string{"window(8.192µs)", "fine(Gbps)", "10ms-avg(Gbps)"},
	}
	step := windows / 40
	if step < 1 {
		step = 1
	}
	var peak, trough float64 = 0, 1e18
	for _, v := range fine {
		g := analyzer.RateGbps(v)
		if g > peak {
			peak = g
		}
		if g < trough {
			trough = g
		}
	}
	for w := 0; w < windows; w += step {
		t.AddRow(fmt.Sprintf("%d", w), fmtF(analyzer.RateGbps(fine[w])), fmtF(coarseRate))
	}
	t.AddNote("fine peak %.1f Gbps, trough %.1f Gbps, 10 ms average %.1f Gbps — the coarse view masks the oscillation", peak, trough, coarseRate)
	return t, nil
}

// Fig05WaveletExample regenerates the worked transform of Figure 5.
func Fig05WaveletExample(*Cache) (*Table, error) {
	signal := []int64{7, 9, 6, 3, 2, 4, 4, 6}
	cf, err := wavelet.Forward(signal, 3)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "fig5", Title: "Wavelet-based counter series compression example",
		Header: []string{"stage", "values"},
	}
	t.AddRow("original", fmt.Sprint(signal))
	t.AddRow("approx L3", fmt.Sprint(cf.Approx))
	t.AddRow("detail L3", fmt.Sprint(cf.Details[2]))
	t.AddRow("detail L2", fmt.Sprint(cf.Details[1]))
	t.AddRow("detail L1", fmt.Sprint(cf.Details[0]))
	kept := wavelet.TopK(cf, 4)
	rec := wavelet.Reconstruct(cf.Approx, kept, cf.Levels, len(signal))
	recRow := make([]int64, len(rec))
	for i, v := range rec {
		recRow[i] = int64(v)
	}
	t.AddRow("top-4 reconstruction", fmt.Sprint(recRow))
	t.AddNote("paper Fig 5 reconstructs {8 8 6 3 3 3 5 5} after dropping the three smallest level-1 details")
	return t, nil
}

// Fig09FlowBehaviors regenerates Figure 9: microsecond-level flow
// behaviours made visible by WaveSketch — a host-limited (gappy) flow and
// a DCQCN flow reacting to an on-off contender.
func Fig09FlowBehaviors(c *Cache) (*Table, error) {
	t := &Table{
		ID: "fig9", Title: "Flow behaviours evident at µs level (WaveSketch reconstructions)",
		Header: []string{"scenario", "window", "truth(Gbps)", "wavesketch(Gbps)"},
	}

	// (a) Host-limited flow: an on-off sender produces a gappy curve.
	{
		topo, err := netsim.Dumbbell(1)
		if err != nil {
			return nil, err
		}
		n, err := netsim.New(netsim.DefaultConfig(topo))
		if err != nil {
			return nil, err
		}
		// A genuine window-based TCP (DCTCP) flow whose application only
		// supplies data 40% of the time — the paper's Figure 9a capture.
		id, err := n.AddFlow(netsim.FlowSpec{
			Src: 0, Dst: 1, Bytes: 1 << 33, StartNs: 0,
			CC: netsim.CCDCTCP, OnNs: 120_000, OffNs: 180_000,
		})
		if err != nil {
			return nil, err
		}
		n.Record()
		tr := n.Run(3_000_000)
		truth, est, start := sketchOneFlow(tr, 0, id, 64)
		emitCurve(t, "gappy-TCP-like", truth, est, start, 24)
		gaps := 0
		for _, v := range truth {
			if v == 0 {
				gaps++
			}
		}
		t.AddNote("scenario (a): %d/%d idle windows — gaps indicate the host, not the network, limits throughput", gaps, len(truth))
	}

	// (b) DCQCN flow disturbed by an on-off contender.
	{
		_, id, tr, err := contendedFlowSim(3_000_000)
		if err != nil {
			return nil, err
		}
		truth, est, start := sketchOneFlow(tr, 0, id, 64)
		emitCurve(t, "RDMA-vs-onoff", truth, est, start, 24)
		t.AddNote("scenario (b): rate dips when the contender turns on and recovers when it stops (DCQCN convergence)")
	}
	return t, nil
}

// sketchOneFlow measures one flow of a trace with a WaveSketch and returns
// (truth, estimate, firstWindow) in Gbps.
func sketchOneFlow(tr *netsim.Trace, host int, id int32, k int) ([]float64, []float64, int64) {
	truthG := measure.NewGroundTruth()
	s, _ := viaReport(wavesketch.NewBasic(wavesketch.Config{Rows: 1, Width: 4, Levels: 8, K: k, Seed: 3}))
	var key = tr.Flows[id].Key
	for _, rec := range tr.HostPackets[host] {
		if rec.FlowID != id {
			continue
		}
		w := measure.WindowOf(rec.Ns)
		truthG.Update(rec.Flow, w, int64(rec.Size))
		s.Update(rec.Flow, w, int64(rec.Size))
	}
	s.Seal()
	ts := truthG.Flow(key)
	if ts == nil {
		return nil, nil, 0
	}
	truth := make([]float64, len(ts.Counts))
	for i, v := range ts.Counts {
		truth[i] = analyzer.RateGbps(float64(v))
	}
	est := toGbps(s.QueryRange(key, ts.Start, ts.End()))
	return truth, est, ts.Start
}

func emitCurve(t *Table, label string, truth, est []float64, start int64, points int) {
	if len(truth) == 0 {
		return
	}
	step := len(truth) / points
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(truth); i += step {
		t.AddRow(label, fmt.Sprintf("%d", start+int64(i)), fmtF(truth[i]), fmtF(est[i]))
	}
}

// Table1HardwareResources regenerates Table 1 from the analytical PISA
// model.
func Table1HardwareResources(*Cache) (*Table, error) {
	m := wavesketch.ModelFromFull(wavesketch.DefaultFull())
	t := &Table{
		ID: "table1", Title: "Resource usage of a full WaveSketch (h=256, L=8, K=64; light w=256, D=1)",
		Header: []string{"resource", "usage", "percentage"},
	}
	for _, u := range m.Usage() {
		t.AddRow(u.Resource, fmt.Sprintf("%d", u.Used), fmt.Sprintf("%.2f%%", u.Percent()))
	}
	t.AddNote("analytical model fitted to the paper's Tofino2 measurements; SALU dominates and is independent of W and K")
	if !m.Fits() {
		t.AddNote("WARNING: configuration does not fit the modeled chip")
	}
	return t, nil
}

// Sec71HostBandwidth regenerates the §7.1 bandwidth claims: per-host
// report upload rate vs per-packet head mirroring.
func Sec71HostBandwidth(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "sec7.1", Title: "Host-side measurement bandwidth (Hadoop 15%)",
		Header: []string{"host", "reportBytes", "reportMbps", "perPacketMirrorMbps"},
	}
	var totalReport, totalMirror float64
	for h, recs := range sim.Trace.HostPackets {
		full, err := wavesketch.NewFull(wavesketch.DefaultFull())
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			full.Update(rec.Flow, measure.WindowOf(rec.Ns), int64(rec.Size))
		}
		full.Seal()
		var buf bytes.Buffer
		n, err := report.FromFull(h, 0, full).Encode(&buf)
		if err != nil {
			return nil, err
		}
		reportMbps := float64(n) * 8 / float64(sim.HorizonNs) * 1e9 / 1e6
		mirrorMbps := float64(len(recs)) * 64 * 8 / float64(sim.HorizonNs) * 1e9 / 1e6
		totalReport += reportMbps
		totalMirror += mirrorMbps
		t.AddRow(fmt.Sprintf("h%d", h), fmt.Sprintf("%d", n), fmtF(reportMbps), fmtF(mirrorMbps))
	}
	hosts := float64(len(sim.Trace.HostPackets))
	t.AddNote("average %.2f Mbps/host for WaveSketch reports vs %.0f Mbps/host for 64B per-packet mirroring (%.3f%% of it)",
		totalReport/hosts, totalMirror/hosts, 100*totalReport/maxf(totalMirror, 1e-9))
	t.AddNote("paper: ~5 Mbps/host for WaveSketch vs ~1.98 Gbps for Valinor/Lumina-style mirroring (0.253%%)")
	return t, nil
}
