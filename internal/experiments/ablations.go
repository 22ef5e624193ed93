package experiments

import (
	"fmt"
	"sort"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/metrics"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// Ablations probe the design choices DESIGN.md calls out. They are
// registered alongside the paper experiments (ids "ablation-*") and have
// matching benchmarks.

// largestFlows returns the n largest flows of a simulation by bytes.
func largestFlows(sim *SimResult, n int) []flowkey.Key {
	flows := sim.Truth.Flows()
	sort.Slice(flows, func(i, j int) bool {
		ti, tj := sim.Truth.Flow(flows[i]).Total(), sim.Truth.Flow(flows[j]).Total()
		if ti != tj {
			return ti > tj
		}
		return flows[i].Compare(flows[j]) < 0 // deterministic tiebreak
	})
	if len(flows) > n {
		flows = flows[:n]
	}
	return flows
}

// AblationSelection compares the Appendix-A weighted top-K selection
// against unweighted (raw-magnitude) selection at equal K on real flow
// series.
func AblationSelection(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablation-selection", Title: "Coefficient selection: weighted (Appendix A) vs unweighted top-K",
		Header: []string{"K", "weightedL2", "unweightedL2", "weightedCosine", "unweightedCosine", "weightedARE", "unweightedARE"},
	}
	flows := largestFlows(sim, 40)
	for _, k := range []int{8, 16, 32, 64} {
		var wCS, uCS metrics.CurveSet
		for _, f := range flows {
			ts := sim.Truth.Flow(f)
			truth := make([]float64, len(ts.Counts))
			for i, v := range ts.Counts {
				truth[i] = float64(v)
			}
			cf, err := wavelet.Forward(ts.Counts, 8)
			if err != nil {
				return nil, err
			}
			rec := func(keep []wavelet.DetailRef) []float64 {
				return wavelet.Reconstruct(cf.Approx, keep, cf.Levels, len(truth))
			}
			wCS.Add(truth, rec(wavelet.TopK(cf, k)))
			uCS.Add(truth, rec(wavelet.TopKUnweighted(cf, k)))
		}
		w, u := wCS.Summarize(), uCS.Summarize()
		t.AddRow(fmt.Sprintf("%d", k),
			fmtF(w.Euclidean), fmtF(u.Euclidean),
			fmtF(w.Cosine), fmtF(u.Cosine),
			fmtF(w.ARE), fmtF(u.ARE))
	}
	t.AddNote("Appendix A's optimality claim is about L2: the weighted rule must win the L2 and cosine columns; ARE (a relative metric) can favor unweighted selection, which spreads mass across small windows")
	return t, nil
}

// AblationDepth sweeps the decomposition depth L: deeper transforms
// shrink the approximation set (better compression) but spend more
// computation and push more information into droppable details — the §4.2
// trade-off.
func AblationDepth(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	flows := largestFlows(sim, 40)
	t := &Table{
		ID: "ablation-depth", Title: "Decomposition depth L vs report size and accuracy (K=32)",
		Header: []string{"L", "reportBytes", "ARE", "cosine"},
	}
	for _, levels := range []int{2, 4, 6, 8, 10} {
		var cs metrics.CurveSet
		var reportBytes int64
		for _, f := range flows {
			ts := sim.Truth.Flow(f)
			cfg := wavesketch.Config{Rows: 1, Width: 1, Levels: levels, K: 32, Seed: 3}
			s, err := viaReport(wavesketch.NewBasic(cfg))
			if err != nil {
				return nil, err
			}
			for i, v := range ts.Counts {
				if v > 0 {
					s.Update(f, ts.Start+int64(i), v)
				}
			}
			s.Seal()
			reportBytes += s.ReportBytes()
			truth := make([]float64, len(ts.Counts))
			for i, v := range ts.Counts {
				truth[i] = float64(v)
			}
			cs.Add(truth, s.QueryRange(f, ts.Start, ts.End()))
		}
		sum := cs.Summarize()
		t.AddRow(fmt.Sprintf("%d", levels), fmt.Sprintf("%d", reportBytes), fmtF(sum.ARE), fmtF(sum.Cosine))
	}
	t.AddNote("report size falls with L (approximation set is n/2^L) while accuracy degrades gently; the paper picks L=8")
	return t, nil
}

// AblationRows sweeps the Count-Min depth D at fixed width: more rows
// buy collision robustness at a linear memory cost.
func AblationRows(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablation-rows", Title: "Count-Min depth D at fixed width (W=128, K=32)",
		Header: []string{"D", "memory(KB)", "ARE", "cosine"},
	}
	for _, rows := range []int{1, 2, 3, 4} {
		cfg := wavesketch.Config{Rows: rows, Width: 128, Levels: 8, K: 32, Seed: 5}
		run := hostRun{name: "ws", instances: make([]measure.SeriesEstimator, len(sim.Trace.HostPackets))}
		for h := range run.instances {
			inst, err := viaReport(wavesketch.NewBasic(cfg))
			if err != nil {
				return nil, err
			}
			run.instances[h] = inst
		}
		for h, recs := range sim.Trace.HostPackets {
			for _, rec := range recs {
				run.instances[h].Update(rec.Flow, measure.WindowOf(rec.Ns), int64(rec.Size))
			}
		}
		var memKB float64
		for _, inst := range run.instances {
			inst.Seal()
			memKB += float64(inst.MemoryBytes()) / 1024
		}
		sum := gradeRun(sim, run, 1, 0)
		t.AddRow(fmt.Sprintf("%d", rows), fmtF(memKB/float64(len(run.instances))), fmtF(sum.ARE), fmtF(sum.Cosine))
	}
	t.AddNote("rows trade collision error against min-combine undershoot: the per-window minimum over independently-compressed (lossy) rows biases low, so gains saturate quickly; the paper uses D=3")
	return t, nil
}

// AblationHeavy compares the full version (heavy/light) against a basic
// sketch of equal memory on the heavy flows the analyzer actually
// queries during replay.
func AblationHeavy(c *Cache) (*Table, error) {
	sim, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "ablation-heavy", Title: "Full (heavy/light) vs basic WaveSketch on heavy flows, equal memory",
		Header: []string{"scheme", "memory(KB)", "heavyARE", "heavyCosine"},
	}
	heavyFlows := largestFlows(sim, 32)

	grade := func(inst measure.SeriesEstimator) metrics.Summary {
		var cs metrics.CurveSet
		for _, f := range heavyFlows {
			ts := sim.Truth.Flow(f)
			truth := make([]float64, len(ts.Counts))
			for i, v := range ts.Counts {
				truth[i] = analyzer.RateGbps(float64(v))
			}
			est := inst.QueryRange(f, ts.Start, ts.End())
			for i := range est {
				est[i] = analyzer.RateGbps(est[i])
			}
			cs.Add(truth, est)
		}
		return cs.Summarize()
	}
	feed := func(inst measure.SeriesEstimator) {
		// Feed all hosts' traffic through one instance: a worst case for
		// collisions that exercises the heavy part's protection.
		type rec struct {
			ns   int64
			flow flowkey.Key
			size int32
		}
		var all []rec
		for _, recs := range sim.Trace.HostPackets {
			for _, r := range recs {
				all = append(all, rec{r.Ns, r.Flow, r.Size})
			}
		}
		sort.Slice(all, func(i, j int) bool { return all[i].ns < all[j].ns })
		for _, r := range all {
			inst.Update(r.flow, measure.WindowOf(r.ns), int64(r.size))
		}
		inst.Seal()
	}

	fullCfg := wavesketch.DefaultFull()
	fullCfg.Light.Width = 32 // scarce light buckets: elephants need protection
	full, err := viaReport(wavesketch.NewFull(fullCfg))
	if err != nil {
		return nil, err
	}
	feed(full)
	fs := grade(full)
	t.AddRow("full", fmtF(float64(full.MemoryBytes())/1024), fmtF(fs.ARE), fmtF(fs.Cosine))

	// A basic sketch given the full version's total memory as extra width.
	basicCfg := wavesketch.Default(64)
	basicCfg.Rows = 1
	basicCfg.Width = 32 + fullCfg.HeavyRows // heavy slots recycled as buckets
	basic, err := viaReport(wavesketch.NewBasic(basicCfg))
	if err != nil {
		return nil, err
	}
	feed(basic)
	bs := grade(basic)
	t.AddRow("basic", fmtF(float64(basic.MemoryBytes())/1024), fmtF(bs.ARE), fmtF(bs.Cosine))
	t.AddNote("the heavy part gives elephants collision-free curves (replay queries them); a basic sketch of equal memory mixes them with mice")
	return t, nil
}
