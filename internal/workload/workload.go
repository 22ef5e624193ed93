// Package workload generates the two traffic workloads of the paper's
// evaluation — the DCTCP WebSearch and Facebook Hadoop flow-size
// distributions — with Poisson arrivals sized to a target link load
// (Appendix D). It regenerates Table 2 and Figure 16a.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// CDFPoint pairs a flow size (bytes) with its cumulative probability.
type CDFPoint struct {
	Bytes float64
	Prob  float64
}

// Distribution is a flow-size distribution specified by a piecewise-linear
// CDF, sampled by inverse-transform.
type Distribution struct {
	Name   string
	Points []CDFPoint
}

// WebSearch is the DCTCP web-search flow-size distribution [Alizadeh et
// al., SIGCOMM'10], the standard discretization used by data-center
// transport papers. Mean ≈ 1.6 MB: few flows, mostly large.
func WebSearch() *Distribution {
	return &Distribution{
		Name: "WebSearch",
		Points: []CDFPoint{
			{0, 0},
			{10e3, 0.15},
			{20e3, 0.20},
			{30e3, 0.30},
			{50e3, 0.40},
			{80e3, 0.53},
			{200e3, 0.60},
			{1e6, 0.70},
			{2e6, 0.80},
			{5e6, 0.90},
			{10e6, 0.97},
			{30e6, 1.00},
		},
	}
}

// FacebookHadoop is the Facebook Hadoop-cluster distribution [Roy et al.,
// SIGCOMM'15]: dominated by small flows, mean ≈ 120 KB, so at equal load it
// produces roughly 13× more flows than WebSearch (Table 2).
func FacebookHadoop() *Distribution {
	return &Distribution{
		Name: "FacebookHadoop",
		Points: []CDFPoint{
			{0, 0},
			{250, 0.20},
			{500, 0.40},
			{1e3, 0.57},
			{2e3, 0.65},
			{5e3, 0.75},
			{10e3, 0.82},
			{30e3, 0.90},
			{100e3, 0.95},
			{500e3, 0.973},
			{2e6, 0.987},
			{12e6, 1.00},
		},
	}
}

// Validate checks monotonicity and normalization of the CDF.
func (d *Distribution) Validate() error {
	if len(d.Points) < 2 {
		return fmt.Errorf("workload %s: need ≥ 2 CDF points", d.Name)
	}
	for i := 1; i < len(d.Points); i++ {
		if d.Points[i].Prob < d.Points[i-1].Prob || d.Points[i].Bytes < d.Points[i-1].Bytes {
			return fmt.Errorf("workload %s: CDF not monotone at point %d", d.Name, i)
		}
	}
	if d.Points[len(d.Points)-1].Prob != 1 {
		return fmt.Errorf("workload %s: CDF must end at probability 1", d.Name)
	}
	return nil
}

// Mean returns the distribution's expected flow size in bytes (piecewise-
// linear CDF → trapezoidal mean of each segment).
func (d *Distribution) Mean() float64 {
	var mean float64
	for i := 1; i < len(d.Points); i++ {
		p := d.Points[i].Prob - d.Points[i-1].Prob
		mid := (d.Points[i].Bytes + d.Points[i-1].Bytes) / 2
		mean += p * mid
	}
	return mean
}

// Sample draws one flow size (≥ 1 byte) by inverse-transform sampling.
func (d *Distribution) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	pts := d.Points
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Prob >= u })
	if i == 0 {
		i = 1
	}
	if i >= len(pts) {
		i = len(pts) - 1
	}
	lo, hi := pts[i-1], pts[i]
	var b float64
	if hi.Prob == lo.Prob {
		b = hi.Bytes
	} else {
		frac := (u - lo.Prob) / (hi.Prob - lo.Prob)
		b = lo.Bytes + frac*(hi.Bytes-lo.Bytes)
	}
	if b < 1 {
		b = 1
	}
	return int64(b)
}

// CDFAt evaluates the CDF at the given size (for regenerating Fig. 16a).
func (d *Distribution) CDFAt(bytes float64) float64 {
	pts := d.Points
	if bytes <= pts[0].Bytes {
		return pts[0].Prob
	}
	for i := 1; i < len(pts); i++ {
		if bytes <= pts[i].Bytes {
			span := pts[i].Bytes - pts[i-1].Bytes
			if span == 0 {
				return pts[i].Prob
			}
			frac := (bytes - pts[i-1].Bytes) / span
			return pts[i-1].Prob + frac*(pts[i].Prob-pts[i-1].Prob)
		}
	}
	return 1
}

// Flow is one generated flow: arrival time, size and endpoints (host
// indices into the topology).
type Flow struct {
	ID      int
	StartNs int64
	Bytes   int64
	Src     int
	Dst     int
}

// Config describes a workload generation run (Appendix D).
type Config struct {
	Dist *Distribution
	// Load is the target average link load on the host links (0–1).
	Load float64
	// Hosts is the number of end hosts; flows pick distinct (src, dst)
	// uniformly at random.
	Hosts int
	// LinkBps is the host link capacity in bits/s (paper: 100 Gbps).
	LinkBps float64
	// DurationNs is the traffic generation horizon (paper: 20 ms).
	DurationNs int64
	Seed       int64
}

// Generate produces a flow list whose aggregate offered load matches
// cfg.Load: the expected number of flows is
//
//	load × hosts × linkRate × duration / (8 × meanFlowSize)
//
// with Poisson arrivals over the horizon and sizes drawn i.i.d. from the
// distribution.
func Generate(cfg Config) ([]Flow, error) {
	if err := cfg.Dist.Validate(); err != nil {
		return nil, err
	}
	if cfg.Load <= 0 || cfg.Load >= 1 {
		return nil, fmt.Errorf("workload: load must be in (0,1), got %v", cfg.Load)
	}
	if cfg.Hosts < 2 {
		return nil, fmt.Errorf("workload: need ≥ 2 hosts, got %d", cfg.Hosts)
	}
	if cfg.LinkBps <= 0 || cfg.DurationNs <= 0 {
		return nil, fmt.Errorf("workload: LinkBps and DurationNs must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	mean := cfg.Dist.Mean()
	totalBits := cfg.Load * float64(cfg.Hosts) * cfg.LinkBps * float64(cfg.DurationNs) / 1e9
	expFlows := totalBits / 8 / mean
	// Poisson arrival rate over the horizon.
	lambda := expFlows / float64(cfg.DurationNs)

	var flows []Flow
	t := float64(0)
	id := 0
	for {
		t += rng.ExpFloat64() / lambda
		if int64(t) >= cfg.DurationNs {
			break
		}
		src := rng.Intn(cfg.Hosts)
		dst := rng.Intn(cfg.Hosts - 1)
		if dst >= src {
			dst++
		}
		flows = append(flows, Flow{
			ID:      id,
			StartNs: int64(t),
			Bytes:   cfg.Dist.Sample(rng),
			Src:     src,
			Dst:     dst,
		})
		id++
	}
	return flows, nil
}

// CounterIncreaseFactorFromDurations computes the Figure 3 quantity
// N(fine)/N(coarse): the ratio of per-flow window counters needed at the
// fine granularity versus the coarse one (§2.3: n(f,δ)=t_f/δ summed over
// flows), given each flow's measured active time. The experiment harness
// feeds it flow durations observed in the simulator.
func CounterIncreaseFactorFromDurations(durationsNs []int64, fineNs, coarseNs int64) float64 {
	var fine, coarse float64
	for _, d := range durationsNs {
		nf := math.Ceil(float64(d) / float64(fineNs))
		if nf < 1 {
			nf = 1
		}
		nc := math.Ceil(float64(d) / float64(coarseNs))
		if nc < 1 {
			nc = 1
		}
		fine += nf
		coarse += nc
	}
	if coarse == 0 {
		return 0
	}
	return fine / coarse
}
