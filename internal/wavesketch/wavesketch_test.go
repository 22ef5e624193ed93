package wavesketch

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
)

func key(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000001 + uint32(i), DstIP: 0x0a000064,
		SrcPort: uint16(10000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

func TestBucketLosslessWhenKLarge(t *testing.T) {
	b := NewBucket(3, wavelet.NewTopKSink(1000))
	vals := []int64{7, 9, 6, 3, 2, 4, 4, 6}
	for i, v := range vals {
		// Two packets per window to exercise the same-window path.
		b.Update(int64(100+i), v-1)
		b.Update(int64(100+i), 1)
	}
	b.Seal()
	got := wavelet.Reconstruct(b.Approx(), b.Details(), 3, b.Len())
	for i, v := range vals {
		if math.Abs(got[i]-float64(v)) > 1e-9 {
			t.Fatalf("window %d = %v, want %d", i, got[i], v)
		}
	}
	if b.W0() != 100 {
		t.Errorf("W0 = %d, want 100", b.W0())
	}
	if b.Len() != 8 {
		t.Errorf("Len = %d, want 8", b.Len())
	}
}

func TestBucketSealIdempotentAndFrozen(t *testing.T) {
	b := NewBucket(2, wavelet.NewTopKSink(16))
	b.Update(5, 10)
	b.Seal()
	before := wavelet.Reconstruct(b.Approx(), b.Details(), 2, b.Len())
	b.Seal()          // idempotent
	b.Update(6, 1000) // ignored after seal
	after := wavelet.Reconstruct(b.Approx(), b.Details(), 2, b.Len())
	if len(after) != 1 || before[0] != after[0] {
		t.Errorf("sealed bucket changed: %v → %v (a post-seal update must not reach window 6)", before, after)
	}
}

func TestBucketEmptyAndStaleUpdate(t *testing.T) {
	b := NewBucket(2, wavelet.NewTopKSink(4))
	if !b.Empty() || b.Len() != 0 || b.ReportBytes() != 0 {
		t.Error("fresh bucket should be empty with no report bytes")
	}
	b.Update(50, 3)
	b.Update(52, 5)
	b.Update(49, 2) // stale window: folded into the open counter, not lost
	b.Seal()
	var total float64
	for _, v := range wavelet.Reconstruct(b.Approx(), b.Details(), 2, b.Len()) {
		total += v
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total = %v, want 10 (no bytes lost on stale update)", total)
	}
}

func TestBasicCompressionBoundsReport(t *testing.T) {
	cfg := Default(32)
	cfg.Rows, cfg.Width = 1, 1 // single bucket
	s, _ := NewBasic(cfg)
	k := key(0)
	rng := rand.New(rand.NewSource(3))
	n := 2048
	for w := 0; w < n; w++ {
		s.Update(k, int64(w), int64(rng.Intn(9000)+1))
	}
	s.Seal()
	// Report = w0 + n/2^L approx counters + ≤K details with metadata.
	maxReport := int64(4 + (n>>8)*4 + 32*6)
	if got := s.ReportBytes(); got > maxReport {
		t.Errorf("report bytes = %d, want ≤ %d", got, maxReport)
	}
	// Compression ratio vs raw counters should be close to the §4.2
	// formula: (n/2^L + 1.5K)/n ≈ 0.027 for n=2048, L=8, K=32.
	ratio := float64(s.ReportBytes()) / float64(n*4)
	if ratio > 0.05 {
		t.Errorf("compression ratio = %v, want < 0.05", ratio)
	}
}

// TestConfigValidation also refuses, before allocating anything, each shape
// one past what a report carries: such a sketch would seal into a report
// every collector refuses.
func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, Width: 1, Levels: 1, K: 1},
		{Rows: 1, Width: 0, Levels: 1, K: 1},
		{Rows: 1, Width: 1, Levels: 0, K: 1},
		{Rows: 1, Width: 1, Levels: 1, K: 0},
		{Rows: MaxRows + 1, Width: 1, Levels: 1, K: 1},
		{Rows: 1, Width: MaxBuckets + 1, Levels: 1, K: 1},
		{Rows: 2, Width: MaxBuckets/2 + 1, Levels: 1, K: 1},
		{Rows: MaxRows, Width: 1 << 60, Levels: 1, K: 1},
		{Rows: 1, Width: 1, Levels: MaxLevels + 1, K: 1},
	}
	for i, cfg := range bad {
		if _, err := NewBasic(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
		if _, err := NewFull(FullConfig{HeavyRows: 1, Light: cfg}); err == nil {
			t.Errorf("config %d should be rejected as a light part", i)
		}
	}
	for _, h := range []int{0, MaxBuckets + 1} {
		if _, err := NewFull(FullConfig{HeavyRows: h, Light: Default(8)}); err == nil {
			t.Errorf("HeavyRows=%d should be rejected", h)
		}
	}
	if _, err := NewBasic(Config{Rows: MaxRows, Width: 1, Levels: MaxLevels, K: 1}); err != nil {
		t.Errorf("the tallest, deepest shape is refused: %v", err)
	}
}

func TestCalibrateNoPressure(t *testing.T) {
	// Short sequences never fill the queue: thresholds must stay 0.
	e, o := Calibrate([][]int64{{1, 2}, {}, {3}}, 8, 64)
	if e != 0 || o != 0 {
		t.Errorf("thresholds = %d/%d, want 0/0 when no queue filled", e, o)
	}
}

func TestNewHardwareHelper(t *testing.T) {
	seq := make([]int64, 512)
	for i := range seq {
		seq[i] = int64(i%100 + 1)
	}
	s, err := NewHardware(Default(32), [][]int64{seq})
	if err != nil {
		t.Fatal(err)
	}
	if s.Name() != "WaveSketch-HW" {
		t.Errorf("Name = %q, want WaveSketch-HW", s.Name())
	}
}

// TestTable1Reference checks the analytical hardware model against the
// paper's Table 1 numbers for the reference configuration.
func TestTable1Reference(t *testing.T) {
	m := ModelFromFull(DefaultFull())
	want := map[string]struct {
		used int
		pct  float64
	}{
		"Exact Match Input xbar": {248, 12.11},
		"Hash Bit":               {752, 11.30},
		"Gateway":                {29, 11.33},
		"SRAM":                   {134, 10.31},
		"Map RAM":                {98, 12.50},
		"VLIW Instr":             {75, 14.65},
		"Stateful ALU":           {49, 76.56},
	}
	for _, u := range m.Usage() {
		w, ok := want[u.Resource]
		if !ok {
			t.Errorf("unexpected resource %q", u.Resource)
			continue
		}
		if u.Used != w.used {
			t.Errorf("%s used = %d, want %d", u.Resource, u.Used, w.used)
		}
		if math.Abs(u.Percent()-w.pct) > 0.05 {
			t.Errorf("%s percent = %.2f, want %.2f", u.Resource, u.Percent(), w.pct)
		}
		if u.String() == "" {
			t.Error("empty usage string")
		}
	}
	if !m.Fits() {
		t.Error("reference configuration should fit the chip")
	}
}

// TestTable1SALUScaling verifies the paper's claim that W and K do not
// change SALU usage while L and D do.
func TestTable1SALUScaling(t *testing.T) {
	base := ModelFromFull(DefaultFull())
	baseSALU := base.Usage()[6].Used

	big := base
	big.Width *= 4
	big.K *= 4
	if got := big.Usage()[6].Used; got != baseSALU {
		t.Errorf("SALU changed with W/K: %d → %d", baseSALU, got)
	}

	deeper := base
	deeper.Levels += 2
	if got := deeper.Usage()[6].Used; got <= baseSALU {
		t.Errorf("SALU should grow with L: %d → %d", baseSALU, got)
	}

	moreRows := base
	moreRows.Rows++
	if got := moreRows.Usage()[6].Used; got <= baseSALU {
		t.Errorf("SALU should grow with D: %d → %d", baseSALU, got)
	}
}

func TestVariantString(t *testing.T) {
	if Ideal.String() != "WaveSketch-Ideal" || Hardware.String() != "WaveSketch-HW" {
		t.Error("variant names drifted from the paper's figure legends")
	}
}

func TestMemoryGrowsWithK(t *testing.T) {
	small, _ := NewBasic(Default(32))
	large, _ := NewBasic(Default(256))
	if small.MemoryBytes() >= large.MemoryBytes() {
		t.Errorf("memory should grow with K: %d vs %d", small.MemoryBytes(), large.MemoryBytes())
	}
}

// TestSketchStateIsGrownByUse: building a Table 1 sketch allocates a fixed
// handful of slabs, none of them sized by K — no sink holds a detail slot
// before its bucket's traffic offers one.
func TestSketchStateIsGrownByUse(t *testing.T) {
	build := func(k int) func() {
		cfg := DefaultFull()
		cfg.Light.K = k
		return func() {
			if _, err := NewFull(cfg); err != nil {
				t.Fatal(err)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, build(64)); allocs > 10 {
		t.Errorf("NewFull(DefaultFull()) allocates %v times, want ≤ 10", allocs)
	}
	bytes := func(k int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			build(k)()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	if k64, k4096 := bytes(64), bytes(4096); k4096 > k64+k64/100 {
		t.Errorf("building the sketch takes %d B at K=64 and %d B at K=4096: state is sized by K", k64, k4096)
	}
}

// TestTopKSinksStayWithinK runs a seeded trace through several epochs of
// seal, read-out and reset and requires every bucket's sink to hold at most
// K slots: a sink grows by doubling but is clamped at K, so state is
// bounded by K × buckets however long the sketch runs.
func TestTopKSinksStayWithinK(t *testing.T) {
	const k = 12 // not a power of two: the last doubling is clamped
	cfg := DefaultFull()
	cfg.Light.K = k
	cfg.HeavyRows = 32
	cfg.Light.Width = 32
	f, err := NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	buckets := make([]*Bucket, 0, len(f.heavy)+len(f.light.buckets))
	for i := range f.heavy {
		buckets = append(buckets, &f.heavy[i].bucket)
	}
	for i := range f.light.buckets {
		buckets = append(buckets, &f.light.buckets[i])
	}
	rng := rand.New(rand.NewSource(42))
	full, grown := 0, 0
	for epoch := 0; epoch < 6; epoch++ {
		for w := int64(0); w < 256; w++ {
			for n := rng.Intn(40); n > 0; n-- {
				f.Update(key(rng.Intn(200)), w, int64(64+rng.Intn(1400)))
			}
		}
		f.Seal()
		for i, b := range buckets {
			if c := cap(b.Details()); c > k {
				t.Fatalf("epoch %d: bucket %d's sink holds %d slots, K is %d", epoch, i, c, k)
			} else if c == k {
				full++
			} else if c > 0 {
				grown++
			}
		}
		f.Reset()
	}
	if full == 0 || grown == 0 {
		t.Errorf("the trace left %d sinks at K and %d grown below it: it does not exercise the clamp", full, grown)
	}
}
