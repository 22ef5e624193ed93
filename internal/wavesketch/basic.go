package wavesketch

import (
	"fmt"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
)

// Variant selects the compression stage implementation.
type Variant int

const (
	// Ideal is the CPU version: exact weighted top-K via a min-heap.
	Ideal Variant = iota
	// Hardware is the PISA-feasible approximation: parity-branched shift
	// weights plus a calibrated threshold filter (§4.3).
	Hardware
)

func (v Variant) String() string {
	if v == Hardware {
		return "WaveSketch-HW"
	}
	return "WaveSketch-Ideal"
}

// Config parameterizes a WaveSketch.
type Config struct {
	Rows   int // D: number of hash rows (paper default 3)
	Width  int // W: buckets per row (paper default 256)
	Levels int // L: wavelet decomposition depth (paper default 8)
	K      int // detail coefficients retained per bucket (32–256)
	Seed   uint64

	Variant Variant
	// Hardware-variant thresholds on the shifted coefficient magnitude,
	// for even and odd levels respectively; produced by Calibrate.
	ThresholdEven int64
	ThresholdOdd  int64
}

// Default returns the paper's evaluation configuration (§7.1): D=3, W=256,
// L=8, with K chosen by the memory budget.
func Default(k int) Config {
	return Config{Rows: 3, Width: 256, Levels: 8, K: k, Seed: 0x5eed0f}
}

func (c *Config) validate() error {
	if c.Rows < 1 || c.Width < 1 {
		return fmt.Errorf("wavesketch: need Rows ≥ 1 and Width ≥ 1, got %d×%d", c.Rows, c.Width)
	}
	if c.Levels < 1 {
		return fmt.Errorf("wavesketch: need Levels ≥ 1, got %d", c.Levels)
	}
	if c.K < 1 {
		return fmt.Errorf("wavesketch: need K ≥ 1, got %d", c.K)
	}
	return nil
}

func (c *Config) newSink() coeffSink {
	if c.Variant == Hardware {
		return wavelet.NewThresholdSink(c.K, c.ThresholdEven, c.ThresholdOdd)
	}
	return wavelet.NewTopKSink(c.K)
}

// Basic is the basic-version WaveSketch (Figure 6): a D×W Count-Min array
// of wavelet buckets. It implements measure.SeriesEstimator.
//
// The buckets live in one contiguous slab indexed r·W + w, so per-packet
// updates walk cache-local state instead of chasing per-bucket pointers,
// and building the array is a single allocation. A key's bucket in row r
// is Hash(RowSeed(Seed, r)) mod W — the placement the report plane
// (report.Queryable, report.RouteGroups) recomputes on the analyzer.
type Basic struct {
	cfg     Config
	buckets []Bucket // slab: bucket (r, w) is buckets[r*cfg.Width+w]
	seeds   []uint64
	width   flowkey.Reducer // hash → bucket index within a row
	updates int64
	sealed  bool
}

// NewBasic builds a basic WaveSketch.
func NewBasic(cfg Config) (*Basic, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	s := &Basic{cfg: cfg, width: flowkey.NewReducer(cfg.Width)}
	s.buckets = make([]Bucket, cfg.Rows*cfg.Width)
	for i := range s.buckets {
		s.buckets[i].Init(cfg.Levels, cfg.newSink())
	}
	s.seeds = make([]uint64, cfg.Rows)
	for r := range s.seeds {
		s.seeds[r] = flowkey.RowSeed(cfg.Seed, r)
	}
	return s, nil
}

// Name implements measure.SeriesEstimator.
func (s *Basic) Name() string { return s.cfg.Variant.String() }

// Config returns the sketch configuration.
func (s *Basic) Config() Config { return s.cfg }

// Update implements measure.SeriesEstimator.
func (s *Basic) Update(f flowkey.Key, w int64, v int64) {
	s.updatePacked(f.Pack(), w, v)
}

// updatePacked is Update on a key packed once by the caller, hashed once
// per row.
func (s *Basic) updatePacked(p flowkey.Packed, w int64, v int64) {
	s.updates++
	for r, seed := range s.seeds {
		s.buckets[r*s.cfg.Width+s.width.Index(p.Hash(seed))].Update(w, v)
	}
}

// Seal implements measure.SeriesEstimator.
func (s *Basic) Seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	for i := range s.buckets {
		s.buckets[i].Seal()
	}
}

// bucketIndex returns the slab index of flow f's bucket in row r.
func (s *Basic) bucketIndex(f flowkey.Key, r int) int {
	return r*s.cfg.Width + s.width.Index(f.Hash(s.seeds[r]))
}

// bucketsFor returns the D buckets flow f maps to.
func (s *Basic) bucketsFor(f flowkey.Key) []*Bucket {
	out := make([]*Bucket, s.cfg.Rows)
	for r := range out {
		out[r] = &s.buckets[s.bucketIndex(f, r)]
	}
	return out
}

// QueryRange implements measure.SeriesEstimator: reconstruct the flow's
// buckets over [from, to) and take the per-window minimum across rows — the
// Count-Min estimate extended to window series.
func (s *Basic) QueryRange(f flowkey.Key, from, to int64) []float64 {
	return minAcross(s.bucketsFor(f), from, to, nil)
}

// minAcross reconstructs each bucket over [from, to), optionally subtracting
// the per-window values in deduct (same length as the range) from every
// bucket before taking the elementwise minimum, and clamps at zero.
func minAcross(buckets []*Bucket, from, to int64, deduct [][]float64) []float64 {
	if to < from {
		to = from
	}
	n := int(to - from)
	est := make([]float64, n)
	for i := range est {
		est[i] = -1 // sentinel: unset
	}
	for bi, b := range buckets {
		cur := b.Reconstruct(from, to)
		if deduct != nil && deduct[bi] != nil {
			for i := range cur {
				cur[i] -= deduct[bi][i]
			}
		}
		for i := range cur {
			if cur[i] < 0 {
				cur[i] = 0
			}
			if est[i] < 0 || cur[i] < est[i] {
				est[i] = cur[i]
			}
		}
	}
	for i := range est {
		if est[i] < 0 {
			est[i] = 0
		}
	}
	return est
}

// MemoryBytes implements measure.SeriesEstimator.
func (s *Basic) MemoryBytes() int64 {
	var total int64
	for i := range s.buckets {
		total += s.buckets[i].StateBytes(s.cfg.K)
	}
	return total
}

// ReportBytes implements measure.SeriesEstimator.
func (s *Basic) ReportBytes() int64 {
	var total int64
	for i := range s.buckets {
		total += s.buckets[i].ReportBytes()
	}
	return total
}

// Updates reports how many Update calls the sketch has absorbed.
func (s *Basic) Updates() int64 { return s.updates }

// Reset clears all buckets for a new measurement period.
func (s *Basic) Reset() {
	s.sealed = false
	s.updates = 0
	for i := range s.buckets {
		s.buckets[i].Reset()
	}
}
