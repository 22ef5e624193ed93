package wavesketch_test

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"umon/internal/measure"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// A sketch only measures: these tests read what it measured the one way
// the analyzer does, from the report of the sealed sketch.

// basicQuery seals s and indexes its report.
func basicQuery(t testing.TB, s *wavesketch.Basic) *report.Queryable {
	t.Helper()
	s.Seal()
	return indexed(t, report.FromBasic(0, 0, s))
}

// fullQuery seals f and indexes its report.
func fullQuery(t testing.TB, f *wavesketch.Full) *report.Queryable {
	t.Helper()
	f.Seal()
	return indexed(t, report.FromFull(0, 0, f))
}

func indexed(t testing.TB, r *report.HostReport) *report.Queryable {
	t.Helper()
	q, err := report.NewQueryable(r)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// Property: with unbounded K and no collisions, a basic WaveSketch
// reproduces any flow series exactly.
func TestBasicExactWithoutPressure(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		cfg := wavesketch.Default(10000)
		cfg.Width = 64
		s, err := wavesketch.NewBasic(cfg)
		if err != nil {
			return false
		}
		k := wavesketch.Key(1)
		for i, v := range raw {
			if v == 0 {
				continue
			}
			s.Update(k, int64(1000+i), int64(v))
		}
		got := basicQuery(t, s).QueryRange(k, 1000, 1000+int64(len(raw)))
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
	cfg := wavesketch.Default(100000)
	cfg.Width = 8 // force collisions
	s, _ := wavesketch.NewBasic(cfg)
	truth := measure.NewGroundTruth()
	// Updates arrive in time order (windows outermost), as on a real device.
	for w := int64(0); w < 64; w++ {
		for fi := 0; fi < 50; fi++ {
			if rng.Intn(3) == 0 {
				v := int64(rng.Intn(1500) + 1)
				s.Update(wavesketch.Key(fi), w, v)
				truth.Update(wavesketch.Key(fi), w, v)
			}
		}
	}
	q := basicQuery(t, s)
	for _, k := range truth.Flows() {
		ts := truth.Flow(k)
		est := q.QueryRange(k, ts.Start, ts.End())
		for i, c := range ts.Counts {
			if est[i] < float64(c)-1e-6 {
				t.Fatalf("flow %v window %d: estimate %v < truth %d", k, i, est[i], c)
			}
		}
	}
}

func TestBasicQueryUnknownFlow(t *testing.T) {
	s, _ := wavesketch.NewBasic(wavesketch.Default(8))
	s.Update(wavesketch.Key(1), 10, 100)
	est := basicQuery(t, s).QueryRange(wavesketch.Key(999), 10, 12)
	// Unknown flow may collide, but with W=256 and one flow the chance of
	// all three rows colliding is nil: expect zeros.
	for _, v := range est {
		if v != 0 {
			t.Errorf("unknown flow estimate = %v, want zeros", est)
		}
	}
}

// TestBucketReconstructInvalidRange: a one-bucket sketch queried over an
// inverted window range answers an empty curve.
func TestBucketReconstructInvalidRange(t *testing.T) {
	cfg := wavesketch.Default(4)
	cfg.Rows, cfg.Width, cfg.Levels = 1, 1, 2
	s, _ := wavesketch.NewBasic(cfg)
	s.Update(wavesketch.Key(1), 1, 1)
	if got := basicQuery(t, s).QueryRange(wavesketch.Key(1), 10, 5); len(got) != 0 {
		t.Errorf("inverted range should yield empty slice, got %v", got)
	}
}

func TestBasicReset(t *testing.T) {
	s, _ := wavesketch.NewBasic(wavesketch.Default(8))
	s.Update(wavesketch.Key(1), 5, 100)
	s.Seal()
	s.Reset()
	if s.Updates() != 0 {
		t.Error("Reset did not clear update counter")
	}
	s.Update(wavesketch.Key(1), 7, 42)
	got := basicQuery(t, s).QueryRange(wavesketch.Key(1), 5, 8)
	if got[0] != 0 || math.Abs(got[2]-42) > 1e-9 {
		t.Errorf("post-reset query = %v, want [0 0 42]", got)
	}
}

func TestFullElectsHeavyFlow(t *testing.T) {
	cfg := wavesketch.DefaultFull()
	full, err := wavesketch.NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	heavy := wavesketch.Key(1)
	for w := int64(0); w < 500; w++ {
		full.Update(heavy, w, 1500)
		if w%10 == 0 {
			full.Update(wavesketch.Key(2+int(w)), w, 64) // scattered mice
		}
	}
	q := fullQuery(t, full)
	if !full.IsHeavy(heavy) {
		t.Fatal("persistent large flow was not elected heavy")
	}
	est := q.QueryRange(heavy, 0, 500)
	for w, v := range est {
		if math.Abs(v-1500) > 1e-6 {
			t.Fatalf("heavy flow window %d = %v, want 1500", w, v)
		}
	}
}

func TestFullLightQuerySubtractsHeavy(t *testing.T) {
	cfg := wavesketch.DefaultFull()
	cfg.HeavyRows = 1   // the mouse cannot take a heavy slot of its own
	cfg.Light.Width = 1 // force the mouse and the heavy flow to collide
	cfg.Light.K = 10000
	full, _ := wavesketch.NewFull(cfg)
	heavy, mouse := wavesketch.Key(1), wavesketch.Key(50)
	for w := int64(0); w < 64; w++ { // in time order, as on a device
		full.Update(heavy, w, 1000)
		if w == 10 {
			full.Update(mouse, w, 100)
		}
	}
	q := fullQuery(t, full)
	if full.IsHeavy(mouse) || !full.IsHeavy(heavy) {
		t.Fatal("the heavy flow should keep the one heavy slot")
	}
	est := q.QueryRange(mouse, 9, 12)
	if math.Abs(est[1]-100) > 1 {
		t.Errorf("mouse estimate = %v, want ≈100 after heavy subtraction", est[1])
	}
	if est[0] > 1 || est[2] > 1 {
		t.Errorf("mouse neighbours = %v/%v, want ≈0 after heavy subtraction", est[0], est[2])
	}
}

func TestFullEvictionKeepsLightCounts(t *testing.T) {
	cfg := wavesketch.DefaultFull()
	cfg.HeavyRows = 1 // every flow contends for one heavy slot
	cfg.Light.K = 10000
	full, _ := wavesketch.NewFull(cfg)
	a, b := wavesketch.Key(1), wavesketch.Key(2)
	full.Update(a, 0, 100) // a installed
	full.Update(b, 1, 300) // vote 100-300 < 0 → b evicts a
	full.Update(b, 2, 300)
	q := fullQuery(t, full)
	if full.IsHeavy(a) {
		t.Error("flow a should have been evicted")
	}
	if !full.IsHeavy(b) {
		t.Error("flow b should own the heavy slot")
	}
	// a's bytes survive in the light part.
	est := q.QueryRange(a, 0, 1)
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

	run := func(cfg wavesketch.Config) float64 {
		cfg.Rows, cfg.Width = 1, 1
		s, err := wavesketch.NewBasic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := wavesketch.Key(1)
		for w, v := range seq {
			s.Update(k, int64(w), v)
		}
		est := basicQuery(t, s).QueryRange(k, 0, int64(n))
		var se float64
		for i, v := range seq {
			d := est[i] - float64(v)
			se += d * d
		}
		return math.Sqrt(se)
	}

	ideal := wavesketch.Default(64)
	idealErr := run(ideal)

	hw := wavesketch.Default(64)
	hw.Variant = wavesketch.Hardware
	hw.ThresholdEven, hw.ThresholdOdd = wavesketch.Calibrate([][]int64{seq}, hw.Levels, hw.K)
	hwErr := run(hw)

	if hwErr > idealErr*2.5+1e-9 {
		t.Errorf("hardware L2 error %.1f too far from ideal %.1f", hwErr, idealErr)
	}
}

func TestFullMidFlowElectionStitchesEarlyWindows(t *testing.T) {
	// A flow that becomes heavy only at window 100 (after an earlier
	// occupant is evicted) must still answer its early windows from the
	// light part.
	cfg := wavesketch.DefaultFull()
	cfg.HeavyRows = 1
	cfg.Light.K = 10000
	full, _ := wavesketch.NewFull(cfg)
	late, early := wavesketch.Key(1), wavesketch.Key(2)
	// early owns the slot first with modest votes.
	for w := int64(0); w < 100; w++ {
		full.Update(early, w, 200)
		full.Update(late, w, 100) // loses votes but counts in light
	}
	// late becomes dominant and evicts early.
	for w := int64(100); w < 300; w++ {
		full.Update(late, w, 2000)
	}
	q := fullQuery(t, full)
	if !full.IsHeavy(late) {
		t.Skip("vote dynamics did not elect the late flow in this layout")
	}
	est := q.QueryRange(late, 0, 300)
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
