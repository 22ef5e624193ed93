package wavesketch

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"umon/internal/flowkey"
	"umon/internal/measure"
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
	got := b.Reconstruct(100, 108)
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
	before := b.Reconstruct(5, 6)[0]
	b.Seal()          // idempotent
	b.Update(6, 1000) // ignored after seal
	after := b.Reconstruct(5, 6)[0]
	if before != after {
		t.Errorf("sealed bucket changed: %v → %v", before, after)
	}
	if got := b.Reconstruct(6, 7)[0]; got != 0 {
		t.Errorf("post-seal update leaked %v bytes into window 6", got)
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
	for _, v := range b.Reconstruct(48, 56) {
		total += v
	}
	if math.Abs(total-10) > 1e-9 {
		t.Errorf("total = %v, want 10 (no bytes lost on stale update)", total)
	}
}

func TestBucketReconstructInvalidRange(t *testing.T) {
	b := NewBucket(2, wavelet.NewTopKSink(4))
	b.Update(1, 1)
	b.Seal()
	if got := b.Reconstruct(10, 5); len(got) != 0 {
		t.Errorf("inverted range should yield empty slice, got %v", got)
	}
}

// Property: with unbounded K and no collisions, a basic WaveSketch
// reproduces any flow series exactly.
func TestBasicExactWithoutPressure(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		cfg := Default(10000)
		cfg.Width = 64
		s, err := NewBasic(cfg)
		if err != nil {
			return false
		}
		k := key(1)
		for i, v := range raw {
			if v == 0 {
				continue
			}
			s.Update(k, int64(1000+i), int64(v))
		}
		s.Seal()
		got := s.QueryRange(k, 1000, 1000+int64(len(raw)))
		for i, v := range raw {
			if math.Abs(got[i]-float64(v)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Count-Min property: the per-window estimate never underestimates when K
// is unbounded (collisions only add).
func TestBasicNeverUnderestimatesLossless(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cfg := Default(100000)
	cfg.Width = 8 // force collisions
	s, _ := NewBasic(cfg)
	truth := measure.NewGroundTruth()
	// Updates arrive in time order (windows outermost), as on a real device.
	for w := int64(0); w < 64; w++ {
		for fi := 0; fi < 50; fi++ {
			if rng.Intn(3) == 0 {
				v := int64(rng.Intn(1500) + 1)
				s.Update(key(fi), w, v)
				truth.Update(key(fi), w, v)
			}
		}
	}
	s.Seal()
	for _, k := range truth.Flows() {
		ts := truth.Flow(k)
		est := s.QueryRange(k, ts.Start, ts.End())
		for i, c := range ts.Counts {
			if est[i] < float64(c)-1e-6 {
				t.Fatalf("flow %v window %d: estimate %v < truth %d", k, i, est[i], c)
			}
		}
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

func TestBasicQueryUnknownFlow(t *testing.T) {
	s, _ := NewBasic(Default(8))
	s.Update(key(1), 10, 100)
	s.Seal()
	est := s.QueryRange(key(999), 10, 12)
	// Unknown flow may collide, but with W=256 and one flow the chance of
	// all three rows colliding is nil: expect zeros.
	for _, v := range est {
		if v != 0 {
			t.Errorf("unknown flow estimate = %v, want zeros", est)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Rows: 0, Width: 1, Levels: 1, K: 1},
		{Rows: 1, Width: 0, Levels: 1, K: 1},
		{Rows: 1, Width: 1, Levels: 0, K: 1},
		{Rows: 1, Width: 1, Levels: 1, K: 0},
	}
	for i, cfg := range bad {
		if _, err := NewBasic(cfg); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	if _, err := NewFull(FullConfig{HeavyRows: 0, Light: Default(8)}); err == nil {
		t.Error("HeavyRows=0 should be rejected")
	}
}

func TestBasicReset(t *testing.T) {
	s, _ := NewBasic(Default(8))
	s.Update(key(1), 5, 100)
	s.Seal()
	s.Reset()
	if s.Updates() != 0 {
		t.Error("Reset did not clear update counter")
	}
	s.Update(key(1), 7, 42)
	s.Seal()
	got := s.QueryRange(key(1), 5, 8)
	if got[0] != 0 || math.Abs(got[2]-42) > 1e-9 {
		t.Errorf("post-reset query = %v, want [0 0 42]", got)
	}
}

func TestFullElectsHeavyFlow(t *testing.T) {
	cfg := DefaultFull()
	full, err := NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := key(1)
	for w := int64(0); w < 500; w++ {
		full.Update(heavy, w, 1500)
		if w%10 == 0 {
			full.Update(key(2+int(w)), w, 64) // scattered mice
		}
	}
	full.Seal()
	if !full.IsHeavy(heavy) {
		t.Fatal("persistent large flow was not elected heavy")
	}
	est := full.QueryRange(heavy, 0, 500)
	for w, v := range est {
		if math.Abs(v-1500) > 1e-6 {
			t.Fatalf("heavy flow window %d = %v, want 1500", w, v)
		}
	}
}

func TestFullLightQuerySubtractsHeavy(t *testing.T) {
	cfg := DefaultFull()
	cfg.Light.Width = 1 // force the mouse and the heavy flow to collide
	cfg.Light.K = 10000
	full, _ := NewFull(cfg)
	heavy, mouse := key(1), key(50)
	for w := int64(0); w < 64; w++ {
		full.Update(heavy, w, 1000)
	}
	full.Update(mouse, 10, 100)
	full.Seal()
	if full.IsHeavy(mouse) {
		t.Skip("mouse unexpectedly landed in an empty heavy slot with matching hash")
	}
	est := full.QueryRange(mouse, 9, 12)
	if math.Abs(est[1]-100) > 1 {
		t.Errorf("mouse estimate = %v, want ≈100 after heavy subtraction", est[1])
	}
	if est[0] > 1 || est[2] > 1 {
		t.Errorf("mouse neighbours = %v/%v, want ≈0 after heavy subtraction", est[0], est[2])
	}
}

func TestFullEvictionKeepsLightCounts(t *testing.T) {
	cfg := DefaultFull()
	cfg.HeavyRows = 1 // every flow contends for one heavy slot
	cfg.Light.K = 10000
	full, _ := NewFull(cfg)
	a, b := key(1), key(2)
	full.Update(a, 0, 100) // a installed
	full.Update(b, 1, 300) // vote 100-300 < 0 → b evicts a
	full.Update(b, 2, 300)
	full.Seal()
	if full.IsHeavy(a) {
		t.Error("flow a should have been evicted")
	}
	if !full.IsHeavy(b) {
		t.Error("flow b should own the heavy slot")
	}
	// a's bytes survive in the light part.
	est := full.QueryRange(a, 0, 1)
	if math.Abs(est[0]-100) > 1 {
		t.Errorf("evicted flow estimate = %v, want ≈100 from light part", est[0])
	}
}

func TestHardwareVariantTracksIdeal(t *testing.T) {
	// A bursty synthetic sequence: the HW variant with calibrated
	// thresholds must reconstruct nearly as well as the ideal version.
	rng := rand.New(rand.NewSource(99))
	n := 1024
	seq := make([]int64, n)
	rate := 3000.0
	for i := range seq {
		if rng.Intn(40) == 0 {
			rate = float64(rng.Intn(9000) + 500)
		}
		seq[i] = int64(rate + float64(rng.Intn(400)))
	}

	run := func(cfg Config) float64 {
		cfg.Rows, cfg.Width = 1, 1
		s, err := NewBasic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := key(1)
		for w, v := range seq {
			s.Update(k, int64(w), v)
		}
		s.Seal()
		est := s.QueryRange(k, 0, int64(n))
		var se float64
		for i, v := range seq {
			d := est[i] - float64(v)
			se += d * d
		}
		return math.Sqrt(se)
	}

	ideal := Default(64)
	idealErr := run(ideal)

	hw := Default(64)
	hw.Variant = Hardware
	hw.ThresholdEven, hw.ThresholdOdd = Calibrate([][]int64{seq}, hw.Levels, hw.K)
	hwErr := run(hw)

	if hwErr > idealErr*2.5+1e-9 {
		t.Errorf("hardware L2 error %.1f too far from ideal %.1f", hwErr, idealErr)
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

func TestFullMidFlowElectionStitchesEarlyWindows(t *testing.T) {
	// A flow that becomes heavy only at window 100 (after an earlier
	// occupant is evicted) must still answer its early windows from the
	// light part.
	cfg := DefaultFull()
	cfg.HeavyRows = 1
	cfg.Light.K = 10000
	full, _ := NewFull(cfg)
	late, early := key(1), key(2)
	// early owns the slot first with modest votes.
	for w := int64(0); w < 100; w++ {
		full.Update(early, w, 200)
		full.Update(late, w, 100) // loses votes but counts in light
	}
	// late becomes dominant and evicts early.
	for w := int64(100); w < 300; w++ {
		full.Update(late, w, 2000)
	}
	full.Seal()
	if !full.IsHeavy(late) {
		t.Skip("vote dynamics did not elect the late flow in this layout")
	}
	est := full.QueryRange(late, 0, 300)
	var earlySum float64
	for _, v := range est[:100] {
		earlySum += v
	}
	// The light part holds late's first 100 windows (100 B each); the
	// estimate may overestimate (collisions) but must not be zero.
	if earlySum < 100*100*0.5 {
		t.Errorf("early windows of a mid-flow-elected heavy flow lost: sum=%v", earlySum)
	}
	for w := 100; w < 300; w++ {
		if est[w] < 1999 || est[w] > 2600 {
			t.Fatalf("heavy window %d = %v, want ≈2000", w, est[w])
		}
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
