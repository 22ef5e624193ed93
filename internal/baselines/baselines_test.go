package baselines

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"umon/internal/flowkey"
	"umon/internal/metrics"
)

func key(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000001 + uint32(i), DstIP: 0x0a000064,
		SrcPort: uint16(20000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// --- FFT ---

func TestFFTRoundTrip(t *testing.T) {
	f := func(raw []int16) bool {
		n := nextPow2(len(raw))
		if n < 2 {
			n = 2
		}
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i, v := range raw {
			x[i] = complex(float64(v), 0)
			orig[i] = x[i]
		}
		fft(x, false)
		fft(x, true)
		for i := range x {
			if cmplx.Abs(x[i]/complex(float64(n), 0)-orig[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFFTKnownSpectrum(t *testing.T) {
	// A pure cosine at bin 1 over 8 samples.
	n := 8
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*float64(i)/float64(n)), 0)
	}
	fft(x, false)
	for j := range x {
		mag := cmplx.Abs(x[j])
		want := 0.0
		if j == 1 || j == n-1 {
			want = float64(n) / 2
		}
		if math.Abs(mag-want) > 1e-9 {
			t.Errorf("bin %d magnitude = %v, want %v", j, mag, want)
		}
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8, 1000: 1024}
	for in, want := range cases {
		if got := nextPow2(in); got != want {
			t.Errorf("nextPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// --- Fourier estimator ---

func TestFourierExactWithFullSpectrum(t *testing.T) {
	fe, err := NewFourier(1, 4, 1<<20, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := key(1)
	vals := []int64{5, 0, 9, 3, 3, 3, 0, 7}
	for i, v := range vals {
		if v > 0 {
			fe.Update(k, int64(100+i), v)
		}
	}
	fe.Seal()
	got := fe.QueryRange(k, 100, 108)
	for i, v := range vals {
		if math.Abs(got[i]-float64(v)) > 1e-6 {
			t.Fatalf("window %d = %v, want %d", i, got[i], v)
		}
	}
}

func TestFourierCompressionPreservesMass(t *testing.T) {
	fe, _ := NewFourier(1, 1, 9, 7) // DC + 4 conjugate pairs
	k := key(1)
	var total float64
	rng := rand.New(rand.NewSource(5))
	for w := 0; w < 256; w++ {
		v := int64(rng.Intn(1000))
		fe.Update(k, int64(w), v)
		total += float64(v)
	}
	fe.Seal()
	got := fe.QueryRange(k, 0, 256)
	var sum float64
	for _, v := range got {
		sum += v
	}
	// Keeping the DC coefficient preserves total mass up to clamping of
	// negative excursions by MinCombine.
	if sum < total*0.9 {
		t.Errorf("reconstructed mass = %v, want ≥ 90%% of %v", sum, total)
	}
}

func TestFourierValidation(t *testing.T) {
	if _, err := NewFourier(0, 4, 8, 1); err == nil {
		t.Error("rows=0 must be rejected")
	}
	fe, _ := NewFourier(1, 4, 0, 1) // clamps to 1
	fe.Update(key(1), 0, 10)
	fe.Seal()
	if fe.ReportBytes() == 0 {
		t.Error("sealed non-empty Fourier sketch should report bytes")
	}
	if fe.MemoryBytes() == 0 {
		t.Error("MemoryBytes should be positive")
	}
}

// --- OmniWindow ---

func TestOmniWindowAveragesSubWindows(t *testing.T) {
	// Period 16 windows, 4 sub-windows → granularity 4.
	ow, err := NewOmniWindow(1, 4, 4, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ow.granularity != 4 {
		t.Fatalf("granularity = %d, want 4", ow.granularity)
	}
	k := key(1)
	ow.Update(k, 100, 40) // sub-window 0
	ow.Update(k, 101, 40) // sub-window 0
	ow.Update(k, 106, 80) // sub-window 1
	ow.Seal()
	got := ow.QueryRange(k, 100, 108)
	for i := 0; i < 4; i++ {
		if math.Abs(got[i]-20) > 1e-9 {
			t.Errorf("sub-window 0 window %d = %v, want 20 (80/4)", i, got[i])
		}
	}
	for i := 4; i < 8; i++ {
		if math.Abs(got[i]-20) > 1e-9 {
			t.Errorf("sub-window 1 window %d = %v, want 20 (80/4)", i, got[i])
		}
	}
}

func TestOmniWindowClampsPastPeriod(t *testing.T) {
	ow, _ := NewOmniWindow(1, 1, 2, 4, 1) // 2 sub-windows of 2
	k := key(1)
	ow.Update(k, 0, 10)
	ow.Update(k, 100, 30) // far past the period: lands in the last sub-window
	ow.Seal()
	got := ow.QueryRange(k, 2, 4)
	if math.Abs(got[0]-15) > 1e-9 {
		t.Errorf("late traffic should be clamped into last sub-window: got %v, want 15", got[0])
	}
	if ow.MemoryBytes() != 1*(4+2*4) {
		t.Errorf("MemoryBytes = %d, want 12", ow.MemoryBytes())
	}
}

func TestOmniWindowLosesPeaks(t *testing.T) {
	// The Figure 13 effect: a single-window burst is smeared across the
	// sub-window, so its peak estimate is far below truth.
	ow, _ := NewOmniWindow(1, 1, 8, 1024, 1) // granularity 128
	k := key(1)
	ow.Update(k, 0, 1)
	ow.Update(k, 500, 128000) // burst
	ow.Seal()
	got := ow.QueryRange(k, 500, 501)
	if got[0] > 128000/100 {
		// smeared to ~1000/window
		t.Errorf("burst window estimate = %v, expected smearing below 1280", got[0])
	}
}

// --- Persist-CMS ---

func TestPersistCMSConstantRateIsExact(t *testing.T) {
	p, err := NewPersistCMS(1, 4, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := key(1)
	for w := int64(0); w < 512; w++ {
		p.Update(k, w, 1000)
	}
	p.Seal()
	got := p.QueryRange(k, 0, 512)
	var worst float64
	for _, v := range got[:511] { // final window may fall past the last knot
		if d := math.Abs(v - 1000); d > worst {
			worst = d
		}
	}
	// A linear cumulative curve fits in one segment: near-exact rates.
	if worst > 50 {
		t.Errorf("constant-rate worst error = %v, want ≤ 50", worst)
	}
	if p.Segments() > 4 {
		t.Errorf("constant-rate flow used %d segments, want ≤ 4", p.Segments())
	}
}

func TestPersistCMSRespectsSegmentBudget(t *testing.T) {
	maxSeg := 8
	p, _ := NewPersistCMS(1, 1, maxSeg, 1)
	k := key(1)
	rng := rand.New(rand.NewSource(9))
	for w := int64(0); w < 2048; w++ {
		p.Update(k, w, int64(rng.Intn(3000)))
	}
	p.Seal()
	if got := p.Segments(); got > maxSeg {
		t.Errorf("segments = %d, exceeds budget %d", got, maxSeg)
	}
	if p.MemoryBytes() != 8+int64(maxSeg)*12 {
		t.Errorf("MemoryBytes = %d, want %d", p.MemoryBytes(), 8+maxSeg*12)
	}
}

func TestPersistCMSStepChange(t *testing.T) {
	p, _ := NewPersistCMS(1, 1, 64, 1)
	k := key(1)
	for w := int64(0); w < 200; w++ {
		rate := int64(100)
		if w >= 100 {
			rate = 5000
		}
		p.Update(k, w, rate)
	}
	p.Seal()
	got := p.QueryRange(k, 0, 200)
	// Before and after the step the estimates should be near the truth.
	if math.Abs(got[50]-100) > 600 {
		t.Errorf("pre-step rate = %v, want ≈100", got[50])
	}
	if math.Abs(got[150]-5000) > 600 {
		t.Errorf("post-step rate = %v, want ≈5000", got[150])
	}
}

// --- Cross-scheme sanity: WaveSketch's advantage scenario ---

// TestBaselinesGradeWorseOnBursts encodes the Figure 11/12 expectation in
// miniature: on a bursty signal at a tight memory budget, OmniWindow-Avg
// loses cosine similarity versus the exact curve.
func TestBaselinesGradeWorseOnBursts(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := int64(1024)
	truth := make([]float64, n)
	ow, _ := NewOmniWindow(1, 1, 16, n, 1)
	k := key(1)
	for w := int64(0); w < n; w++ {
		var v int64
		if rng.Intn(20) == 0 {
			v = int64(rng.Intn(90000) + 10000) // bursts
		} else {
			v = int64(rng.Intn(100))
		}
		truth[w] = float64(v)
		ow.Update(k, w, v)
	}
	ow.Seal()
	est := ow.QueryRange(k, 0, n)
	if cs := metrics.Cosine(truth, est); cs > 0.6 {
		t.Errorf("OmniWindow cosine on bursty signal = %v, expected heavy smearing (< 0.6)", cs)
	}
}

func TestCMFrameValidation(t *testing.T) {
	if _, err := newCMFrame(1, 0, 1); err == nil {
		t.Error("width=0 must be rejected")
	}
	f, err := newCMFrame(3, 16, 42)
	if err != nil {
		t.Fatal(err)
	}
	// Rows must hash independently: indexes for the same key should not
	// all coincide (probability 1/256 per extra row).
	k := key(7)
	same := true
	first := f.index(k, 0)
	for r := 1; r < 3; r++ {
		if f.index(k, r) != first {
			same = false
		}
	}
	if same {
		t.Error("all rows produced identical indexes; seeds are correlated")
	}
}

func BenchmarkPersistCMSUpdate(b *testing.B) {
	p, _ := NewPersistCMS(3, 256, 64, 1)
	keys := make([]flowkey.Key, 32)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Update(keys[i%len(keys)], int64(i/len(keys)), 1500)
	}
}

func BenchmarkFourierSeal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fe, _ := NewFourier(1, 64, 32, 1)
		rng := rand.New(rand.NewSource(1))
		for w := int64(0); w < 2048; w++ {
			fe.Update(key(int(w)%16), w, int64(rng.Intn(1500)))
		}
		b.StartTimer()
		fe.Seal()
	}
}
