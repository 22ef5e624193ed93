package workload

import (
	"math"
	"math/rand"
	"testing"
)

func TestDistributionsValidate(t *testing.T) {
	for _, d := range []*Distribution{WebSearch(), FacebookHadoop()} {
		if err := d.Validate(); err != nil {
			t.Errorf("%s: %v", d.Name, err)
		}
	}
}

func TestValidateRejectsBadCDFs(t *testing.T) {
	bad := []*Distribution{
		{Name: "short", Points: []CDFPoint{{0, 0}}},
		{Name: "nonmono", Points: []CDFPoint{{0, 0}, {10, 0.5}, {5, 1}}},
		{Name: "unnormalized", Points: []CDFPoint{{0, 0}, {10, 0.9}}},
	}
	for _, d := range bad {
		if err := d.Validate(); err == nil {
			t.Errorf("%s: expected validation error", d.Name)
		}
	}
}

func TestMeansMatchPaperScale(t *testing.T) {
	// WebSearch mean ≈ 1.6 MB, Hadoop ≈ 120 KB: their ratio (~13×) drives
	// the Table 2 flow counts.
	ws, hd := WebSearch().Mean(), FacebookHadoop().Mean()
	if ws < 1e6 || ws > 3e6 {
		t.Errorf("WebSearch mean = %v, want ~1.6 MB", ws)
	}
	if hd < 50e3 || hd > 300e3 {
		t.Errorf("Hadoop mean = %v, want ~120 KB", hd)
	}
	if ratio := ws / hd; ratio < 8 || ratio > 25 {
		t.Errorf("mean ratio = %v, want ~13", ratio)
	}
}

func TestSampleMatchesMean(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*Distribution{WebSearch(), FacebookHadoop()} {
		var sum float64
		n := 200000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		got := sum / float64(n)
		want := d.Mean()
		if math.Abs(got-want)/want > 0.05 {
			t.Errorf("%s: sampled mean %v, analytic %v", d.Name, got, want)
		}
	}
}

func TestCDFAtInterpolates(t *testing.T) {
	d := &Distribution{Name: "t", Points: []CDFPoint{{0, 0}, {100, 0.5}, {200, 1}}}
	cases := map[float64]float64{0: 0, 50: 0.25, 100: 0.5, 150: 0.75, 200: 1, 999: 1}
	for x, want := range cases {
		if got := d.CDFAt(x); math.Abs(got-want) > 1e-12 {
			t.Errorf("CDFAt(%v) = %v, want %v", x, got, want)
		}
	}
}

func defaultCfg(d *Distribution, load float64) Config {
	return Config{
		Dist: d, Load: load, Hosts: 16,
		LinkBps: 100e9, DurationNs: 20e6, Seed: 42,
	}
}

func TestGenerateHitsTargetLoad(t *testing.T) {
	for _, d := range []*Distribution{WebSearch(), FacebookHadoop()} {
		for _, load := range []float64{0.15, 0.35} {
			cfg := defaultCfg(d, load)
			flows, err := Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s := Summarize(flows, cfg, 1000)
			if math.Abs(s.OfferedLoad-load)/load > 0.35 {
				t.Errorf("%s %.0f%%: offered load %v too far from target", d.Name, load*100, s.OfferedLoad)
			}
			for _, f := range flows {
				if f.Src == f.Dst {
					t.Fatalf("flow %d has src == dst", f.ID)
				}
				if f.StartNs < 0 || f.StartNs >= cfg.DurationNs {
					t.Fatalf("flow %d starts outside horizon", f.ID)
				}
				if f.Bytes < 1 {
					t.Fatalf("flow %d has non-positive size", f.ID)
				}
			}
		}
	}
}

// TestTable2FlowCounts checks the Table 2 shape: at equal load Hadoop has
// roughly an order of magnitude more flows than WebSearch, and flow counts
// grow with load.
func TestTable2FlowCounts(t *testing.T) {
	count := func(d *Distribution, load float64) int {
		flows, err := Generate(defaultCfg(d, load))
		if err != nil {
			t.Fatal(err)
		}
		return len(flows)
	}
	ws15 := count(WebSearch(), 0.15)
	ws35 := count(WebSearch(), 0.35)
	hd15 := count(FacebookHadoop(), 0.15)
	hd35 := count(FacebookHadoop(), 0.35)

	if ws15 < 150 || ws15 > 800 {
		t.Errorf("WebSearch 15%% flows = %d, paper has 367", ws15)
	}
	if hd15 < 2500 || hd15 > 9000 {
		t.Errorf("Hadoop 15%% flows = %d, paper has 4966", hd15)
	}
	if ws35 <= ws15 || hd35 <= hd15 {
		t.Error("flow counts must grow with load")
	}
	if ratio := float64(hd15) / float64(ws15); ratio < 5 {
		t.Errorf("Hadoop/WebSearch flow ratio = %v, want ≥ 5", ratio)
	}
}

func TestGenerateValidation(t *testing.T) {
	base := defaultCfg(WebSearch(), 0.15)
	bad := []func(*Config){
		func(c *Config) { c.Load = 0 },
		func(c *Config) { c.Load = 1 },
		func(c *Config) { c.Hosts = 1 },
		func(c *Config) { c.LinkBps = 0 },
		func(c *Config) { c.DurationNs = 0 },
	}
	for i, mut := range bad {
		cfg := base
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := defaultCfg(FacebookHadoop(), 0.25)
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	if len(a) != len(b) {
		t.Fatalf("runs differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flow %d differs between identical-seed runs", i)
		}
	}
}

// TestFig3CounterIncrease reproduces the Figure 3 shape: refining 10 ms →
// 10 µs amplifies the counter count far more for WebSearch (hundreds×) than
// for Hadoop (tens×), because WebSearch flows are long-lived.
func TestFig3CounterIncrease(t *testing.T) {
	wsFlows, _ := Generate(defaultCfg(WebSearch(), 0.35))
	hdFlows, _ := Generate(defaultCfg(FacebookHadoop(), 0.35))
	ws := CounterIncreaseFactorFromDurations(EstimateDurations(wsFlows, 100e9, 0.35), 10_000, 10_000_000)
	hd := CounterIncreaseFactorFromDurations(EstimateDurations(hdFlows, 100e9, 0.35), 10_000, 10_000_000)
	if ws < 15 {
		t.Errorf("WebSearch increase factor = %v, want large (paper: 387×)", ws)
	}
	if hd < 1.1 || hd > 100 {
		t.Errorf("Hadoop increase factor = %v, want small tens× (paper: 34×)", hd)
	}
	if ws <= hd {
		t.Errorf("WebSearch factor (%v) must exceed Hadoop (%v)", ws, hd)
	}
}

func TestCounterIncreaseFromDurations(t *testing.T) {
	if got := CounterIncreaseFactorFromDurations(nil, 10_000, 10_000_000); got != 0 {
		t.Errorf("empty duration list factor = %v, want 0", got)
	}
	// A flow spanning exactly one coarse window spans 1000 fine windows.
	got := CounterIncreaseFactorFromDurations([]int64{10_000_000}, 10_000, 10_000_000)
	if got != 1000 {
		t.Errorf("single 10 ms flow factor = %v, want 1000", got)
	}
	// A sub-window flow needs one counter at either granularity.
	got = CounterIncreaseFactorFromDurations([]int64{5_000}, 10_000, 10_000_000)
	if got != 1 {
		t.Errorf("tiny flow factor = %v, want 1", got)
	}
}

func TestEstimateDurations(t *testing.T) {
	flows := []Flow{{Bytes: 125_000}} // 1 Mb
	d := EstimateDurations(flows, 100e9, 0.5)
	// 1 Mb at 50 Gbps effective = 20 µs.
	if math.Abs(float64(d[0])-20_000) > 1 {
		t.Errorf("duration = %d ns, want 20000", d[0])
	}
	d = EstimateDurations(flows, 100e9, 1.0) // degenerate load falls back to line rate
	if d[0] <= 0 {
		t.Error("degenerate load must still give positive durations")
	}
}

func TestSummarizePacketCount(t *testing.T) {
	flows := []Flow{{Bytes: 1000}, {Bytes: 1001}, {Bytes: 1}}
	s := Summarize(flows, Config{}, 1000)
	if s.Packets != 1+2+1 {
		t.Errorf("packets = %d, want 4", s.Packets)
	}
	if s.TotalBytes != 2002 {
		t.Errorf("bytes = %d, want 2002", s.TotalBytes)
	}
}
