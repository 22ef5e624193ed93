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

// The largest sketch shape a report carries: report.parse refuses a header
// past these bounds, so a sketch is refused at construction instead.
const (
	MaxRows    = 64
	MaxLevels  = 24
	MaxBuckets = 1 << 24 // Width, Rows×Width and HeavyRows
)

func (c *Config) validate() error {
	if c.Rows < 1 || c.Width < 1 || c.Rows > MaxRows || c.Width > MaxBuckets || c.Rows*c.Width > MaxBuckets {
		return fmt.Errorf("wavesketch: need 1 ≤ Rows ≤ %d, Width ≥ 1 and Rows×Width ≤ %d, got %d×%d", MaxRows, MaxBuckets, c.Rows, c.Width)
	}
	if c.Levels < 1 || c.Levels > MaxLevels {
		return fmt.Errorf("wavesketch: need 1 ≤ Levels ≤ %d, got %d", MaxLevels, c.Levels)
	}
	if c.K < 1 {
		return fmt.Errorf("wavesketch: need K ≥ 1, got %d", c.K)
	}
	return nil
}

// initBuckets initializes bucket(i) for i in [0, n), each with its own
// sink of the configured variant. The sinks are made as one slab of values
// that the buckets point into; each grows its details by use.
func (c *Config) initBuckets(n int, bucket func(i int) *Bucket) {
	if c.Variant == Hardware {
		sinks := make([]wavelet.ThresholdSink, n)
		for i := range sinks {
			sinks[i] = *wavelet.NewThresholdSink(c.K, c.ThresholdEven, c.ThresholdOdd)
			bucket(i).Init(c.Levels, &sinks[i])
		}
		return
	}
	sinks := make([]wavelet.TopKSink, n)
	for i := range sinks {
		sinks[i] = *wavelet.NewTopKSink(c.K)
		bucket(i).Init(c.Levels, &sinks[i])
	}
}

// Basic is the basic-version WaveSketch (Figure 6): a D×W Count-Min array
// of wavelet buckets. It only measures; its report answers flow queries.
//
// The buckets live in one contiguous slab indexed r·W + w, so per-packet
// updates walk cache-local state instead of chasing per-bucket pointers,
// and building the array takes four allocations whatever K is: the sketch,
// the bucket slab, the sink slab and the row seeds. A key's bucket in row r
// is Hash(RowSeed(Seed, r)) mod W — the placement report.Queryable
// recomputes on the analyzer, and whose seeds and reducer a
// report.RoutedSet takes from its first member to route a query.
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
	cfg.initBuckets(len(s.buckets), func(i int) *Bucket { return &s.buckets[i] })
	s.seeds = make([]uint64, cfg.Rows)
	for r := range s.seeds {
		s.seeds[r] = flowkey.RowSeed(cfg.Seed, r)
	}
	return s, nil
}

// Name is the variant's figure legend.
func (s *Basic) Name() string { return s.cfg.Variant.String() }

// Config returns the sketch configuration.
func (s *Basic) Config() Config { return s.cfg }

// Update adds v bytes of flow f to window w in every row's bucket.
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

// Seal ends the measurement period: every bucket flushes its open window
// and ignores later updates.
func (s *Basic) Seal() {
	if s.sealed {
		return
	}
	s.sealed = true
	for i := range s.buckets {
		s.buckets[i].Seal()
	}
}

// MemoryBytes is the device memory the sketch holds.
func (s *Basic) MemoryBytes() int64 {
	var total int64
	for i := range s.buckets {
		total += s.buckets[i].StateBytes(s.cfg.K)
	}
	return total
}

// ReportBytes is §4.2's estimate of the period's upload.
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
