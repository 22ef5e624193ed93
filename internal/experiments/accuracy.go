package experiments

import (
	"fmt"
	"sort"

	"umon/internal/analyzer"
	"umon/internal/baselines"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/metrics"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// Accuracy evaluation shape (§7.1): D=3 rows × W=256 buckets per host,
// L=8 levels, 8.192 µs windows; the memory budget fixes each scheme's
// per-bucket parameter.
const (
	accRows  = 3
	accWidth = 256
	accLvls  = 8
)

// schemeNames in figure-legend order.
var schemeNames = []string{"Fourier", "OmniWindow-Avg", "Persist-CMS", "WaveSketch-Ideal", "WaveSketch-HW"}

// perBucketBudget converts a per-host memory target into a per-bucket byte
// budget.
func perBucketBudget(memBytes int64) int64 {
	return memBytes / int64(accRows*accWidth)
}

// buildScheme constructs one estimator for a per-host memory budget.
// samples feed the hardware-variant threshold calibration; periodWindows
// sizes OmniWindow's sub-window granularity.
func buildScheme(name string, memBytes int64, periodWindows int64, samples [][]int64, seed uint64) (measure.SeriesEstimator, error) {
	bb := perBucketBudget(memBytes)
	switch name {
	case "WaveSketch-Ideal", "WaveSketch-HW":
		// Bucket fixed cost: header(10) + L pending details (6 each) +
		// ~10 approximation counters; the rest buys K coefficient slots.
		k := int((bb - 98) / 6)
		if k < 4 {
			k = 4
		}
		cfg := wavesketch.Config{Rows: accRows, Width: accWidth, Levels: accLvls, K: k, Seed: seed}
		if name == "WaveSketch-HW" {
			return viaReport(wavesketch.NewHardware(cfg, samples))
		}
		return viaReport(wavesketch.NewBasic(cfg))
	case "OmniWindow-Avg":
		m := int((bb - 4) / 4)
		if m < 1 {
			m = 1
		}
		return baselines.NewOmniWindow(accRows, accWidth, m, periodWindows, seed)
	case "Persist-CMS":
		segs := int((bb - 8) / 12)
		if segs < 2 {
			segs = 2
		}
		return baselines.NewPersistCMS(accRows, accWidth, segs, seed)
	case "Fourier":
		top := int((bb - 8) / 10)
		if top < 1 {
			top = 1
		}
		return baselines.NewFourier(accRows, accWidth, top, seed)
	}
	return nil, fmt.Errorf("experiments: unknown scheme %q", name)
}

// sketch is what the basic and the full WaveSketch share: all of
// measure.SeriesEstimator but the query, which only a report answers.
type sketch interface {
	Name() string
	Update(f flowkey.Key, w int64, v int64)
	Seal()
	MemoryBytes() int64
	ReportBytes() int64
}

// reportedSketch is a WaveSketch graded the way the analyzer reads it: Seal
// seals the sketch and indexes its report, and QueryRange reads the report.
type reportedSketch struct {
	sketch
	q *report.Queryable
}

// viaReport wraps a sketch just built, passing its build error on.
func viaReport(s sketch, err error) (measure.SeriesEstimator, error) {
	if err != nil {
		return nil, err
	}
	return &reportedSketch{sketch: s}, nil
}

func (r *reportedSketch) Seal() {
	r.sketch.Seal()
	var rep *report.HostReport
	switch s := r.sketch.(type) {
	case *wavesketch.Basic:
		rep = report.FromBasic(0, 0, s)
	case *wavesketch.Full:
		rep = report.FromFull(0, 0, s)
	}
	q, err := report.NewQueryable(rep)
	if err != nil {
		panic(err) // a sealed sketch counts every heavy flow in its light part too
	}
	r.q = q
}

func (r *reportedSketch) QueryRange(f flowkey.Key, from, to int64) []float64 {
	return r.q.QueryRange(f, from, to)
}

// calibrationSamples extracts the largest flows' exact window series for
// hardware threshold calibration (§4.3 samples traces "from actual
// scenarios in advance").
func calibrationSamples(sim *SimResult, n int) [][]int64 {
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
	out := make([][]int64, 0, len(flows))
	for _, f := range flows {
		out = append(out, sim.Truth.Flow(f).Counts)
	}
	return out
}

// hostRun holds one scheme's per-host estimator instances.
type hostRun struct {
	name      string
	instances []measure.SeriesEstimator
}

// runSchemes replays the host egress streams through fresh instances of
// every scheme at the given per-host memory budget and returns the sealed
// runs.
func runSchemes(sim *SimResult, memBytes int64, names []string) ([]hostRun, error) {
	hosts := len(sim.Trace.HostPackets)
	periodWindows := sim.HorizonNs / measure.WindowNanos
	samples := calibrationSamples(sim, 64)

	runs := make([]hostRun, len(names))
	for i, name := range names {
		runs[i].name = name
		runs[i].instances = make([]measure.SeriesEstimator, hosts)
	}
	// Each host's estimator instances see only that host's egress stream,
	// seeded by the host index.
	for h := 0; h < hosts; h++ {
		for i, name := range names {
			inst, err := buildScheme(name, memBytes, periodWindows, samples, uint64(h)*977+13)
			if err != nil {
				return nil, err
			}
			runs[i].instances[h] = inst
		}
		for _, rec := range sim.Trace.HostPackets[h] {
			w := measure.WindowOf(rec.Ns)
			for i := range runs {
				runs[i].instances[h].Update(rec.Flow, w, int64(rec.Size))
			}
		}
		for i := range runs {
			runs[i].instances[h].Seal()
		}
	}
	return runs, nil
}

// gradeRun grades one sealed run against ground truth, in Gbps units,
// optionally filtered to flows whose series length (windows) lies in
// [minLen, maxLen).
func gradeRun(sim *SimResult, run hostRun, minLen, maxLen int) metrics.Summary {
	// Flows are graded in sorted-key order (not map order), so the
	// summary's float accumulation — and therefore the rendered table — is
	// deterministic.
	var cs metrics.CurveSet
	for _, f := range sim.Truth.SortedFlows() {
		ts := sim.Truth.Flow(f)
		n := len(ts.Counts)
		if n < minLen || (maxLen > 0 && n >= maxLen) {
			continue
		}
		src := srcHostOf(f)
		if src < 0 || src >= len(run.instances) {
			continue
		}
		est := run.instances[src].QueryRange(f, ts.Start, ts.End())
		truth := make([]float64, n)
		for i, c := range ts.Counts {
			truth[i] = analyzer.RateGbps(float64(c))
		}
		for i := range est {
			est[i] = analyzer.RateGbps(est[i])
		}
		cs.Add(truth, est)
	}
	return cs.Summarize()
}

// srcHostOf decodes the sender host index from a flow key (hosts are
// addressed 10.0.h.1, see netsim.HostIP).
func srcHostOf(f flowkey.Key) int {
	return int(f.SrcIP>>8) & 0xffff
}
