package telemetry

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryYieldsNilMetrics(t *testing.T) {
	var r *Registry
	if c := r.Counter("x", ""); c != nil {
		t.Error("nil registry must return nil counter")
	}
	if g := r.Gauge("x", ""); g != nil {
		t.Error("nil registry must return nil gauge")
	}
	if h := r.Histogram("x", ""); h != nil {
		t.Error("nil registry must return nil histogram")
	}
	if v := r.CounterVec("x", "", "shard", 4); v != nil {
		t.Error("nil registry must return nil vec")
	}
	if tr := NewTracer(nil); tr != nil {
		t.Error("nil registry must return nil tracer")
	}
	if got := r.Snapshot(); got != nil {
		t.Error("nil registry snapshot must be nil")
	}
	r.WritePrometheus(io.Discard)
	r.WriteSummary(io.Discard)
	if err := r.WriteJSON(io.Discard); err != nil {
		t.Error(err)
	}
}

func TestNilMetricsNoop(t *testing.T) {
	var c *Counter
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Error("nil counter value")
	}
	var g *Gauge
	g.Set(3)
	g.SetMax(9)
	if g.Value() != 0 {
		t.Error("nil gauge value")
	}
	var h *Histogram
	h.Observe(42)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil histogram must stay empty")
	}
	var v *CounterVec
	if v.At(0) != nil || v.Sum() != 0 || v.Len() != 0 {
		t.Error("nil vec must yield nil cells")
	}
	var tr *Tracer
	sp := tr.Start("x")
	sp.End() // must not panic
}

// TestDisabledPathAllocs pins the tentpole contract: the disabled
// (nil-receiver) instrumentation path performs zero allocations.
func TestDisabledPathAllocs(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var v *CounterVec
	var tr *Tracer
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		g.Set(1)
		g.SetMax(2)
		h.Observe(7)
		v.At(2).Add(1)
		sp := tr.Start("stage")
		sp.End()
	}); n != 0 {
		t.Errorf("disabled telemetry path allocated %.1f allocs/op, want 0", n)
	}
}

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("umon_test_total", "help text")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("umon_test_total", ""); again != c {
		t.Error("registration must be idempotent")
	}
	g := r.Gauge("umon_test_gauge", "")
	g.Set(10)
	g.SetMax(7)
	if g.Value() != 10 {
		t.Errorf("SetMax lowered the gauge to %d", g.Value())
	}
	g.SetMax(12)
	if g.Value() != 12 {
		t.Errorf("SetMax failed to raise: %d", g.Value())
	}
	if r.Value("umon_test_total") != 5 || r.Value("umon_test_gauge") != 12 {
		t.Error("Value lookup mismatch")
	}
	if r.Value("no_such_series") != 0 {
		t.Error("unknown series must read 0")
	}
}

func TestCounterVecShardsAndSum(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("umon_vec_total", "", "shard", 3)
	if v.Len() != 3 {
		t.Fatalf("len = %d", v.Len())
	}
	v.At(0).Add(1)
	v.At(2).Add(10)
	if v.At(5) != nil || v.At(-1) != nil {
		t.Error("out-of-range cells must be nil")
	}
	if v.Sum() != 11 {
		t.Errorf("sum = %d, want 11", v.Sum())
	}
	if again := r.CounterVec("umon_vec_total", "", "shard", 3); again != v {
		t.Error("vec registration must be idempotent")
	}
	if r.Value(`umon_vec_total{shard="2"}`) != 10 {
		t.Error("per-shard series not exposed")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("umon_lat_ns", "")
	for _, v := range []int64{0, 1, 1, 3, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1105 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
	s := h.snap()
	if len(s.Buckets) == 0 {
		t.Fatal("no buckets")
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.Count != 6 {
		t.Errorf("cumulative tail = %d, want 6", last.Count)
	}
	// p50 of {0,1,1,3,100,1000} is ≤ 1; p99 lands in the 1000 bucket
	// (le = 1023).
	if q := quantileLe(s, 0.50); q != 1 {
		t.Errorf("p50 ≤ %d, want 1", q)
	}
	if q := quantileLe(s, 0.99); q != 1023 {
		t.Errorf("p99 ≤ %d, want 1023", q)
	}
	// The exported Quantile wraps the same estimator.
	if q := h.Quantile(0.50); q != 1 {
		t.Errorf("Quantile(0.5) = %d, want 1", q)
	}
	if q := h.Quantile(0.99); q != 1023 {
		t.Errorf("Quantile(0.99) = %d, want 1023", q)
	}
	var nilH *Histogram
	if q := nilH.Quantile(0.5); q != 0 {
		t.Errorf("nil Quantile = %d, want 0", q)
	}
}

func TestConcurrentWrites(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("umon_conc_total", "")
	h := r.Histogram("umon_conc_ns", "")
	v := r.CounterVec("umon_conc_vec_total", "", "shard", 4)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cell := v.At(w)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(int64(i))
				cell.Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != 4000 || h.Count() != 4000 || v.Sum() != 4000 {
		t.Errorf("lost updates: c=%d h=%d v=%d", c.Value(), h.Count(), v.Sum())
	}
}

func TestTracerRecordsStages(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	sp := tr.Start("unit_stage")
	_ = make([]byte, 4096) // give the alloc delta something to see
	time.Sleep(time.Millisecond)
	sp.End()
	if n := r.Value(`umon_stage_runs_total{stage="unit_stage"}`); n != 1 {
		t.Errorf("runs = %d, want 1", n)
	}
	if n := r.Value(`umon_stage_wall_ns{stage="unit_stage"}`); n != 1 {
		t.Errorf("wall observations = %d, want 1", n)
	}
	// Stage names are sanitized into label values.
	tr.Start(`we"ird stage`).End()
	if n := r.Value(`umon_stage_runs_total{stage="we_ird_stage"}`); n != 1 {
		t.Errorf("sanitized stage missing, got %d", n)
	}
}

// TestTracerConcurrent hammers one Tracer from many goroutines mixing a
// shared stage name (races on the lazy stageFor registration) with
// per-goroutine names, and checks no span is lost. Run under -race.
func TestTracerConcurrent(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(r)
	const workers, spans = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < spans; i++ {
				sp := tr.Start("shared_stage")
				sp.End()
				tr.Start(string(rune('a'+w)) + "_stage").End()
			}
		}(w)
	}
	wg.Wait()
	if n := r.Value(`umon_stage_runs_total{stage="shared_stage"}`); n != workers*spans {
		t.Errorf("shared stage runs = %d, want %d", n, workers*spans)
	}
	if n := r.Value(`umon_stage_wall_ns{stage="shared_stage"}`); n != workers*spans {
		t.Errorf("shared stage wall observations = %d, want %d", n, workers*spans)
	}
	for w := 0; w < workers; w++ {
		name := `umon_stage_runs_total{stage="` + string(rune('a'+w)) + `_stage"}`
		if n := r.Value(name); n != spans {
			t.Errorf("%s = %d, want %d", name, n, spans)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("umon_a_total", "a help").Add(7)
	r.Gauge("umon_b_bytes", "").Set(9)
	h := r.Histogram("umon_c_ns", "c help")
	h.Observe(5)
	v := r.CounterVec("umon_d_total", "", "shard", 2)
	v.At(1).Inc()
	var buf bytes.Buffer
	r.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# HELP umon_a_total a help",
		"# TYPE umon_a_total counter",
		"umon_a_total 7",
		"# TYPE umon_b_bytes gauge",
		"umon_b_bytes 9",
		"# TYPE umon_c_ns histogram",
		`umon_c_ns_bucket{le="7"} 1`,
		`umon_c_ns_bucket{le="+Inf"} 1`,
		"umon_c_ns_sum 5",
		"umon_c_ns_count 1",
		`umon_d_total{shard="0"} 0`,
		`umon_d_total{shard="1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestJSONAndSummary(t *testing.T) {
	r := NewRegistry()
	r.Counter("umon_j_total", "").Add(3)
	r.Histogram("umon_j_ns", "").Observe(100)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"umon_j_total": 3`) {
		t.Errorf("JSON missing counter:\n%s", buf.String())
	}
	buf.Reset()
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "umon_j_total") || !strings.Contains(buf.String(), "count=1") {
		t.Errorf("summary incomplete:\n%s", buf.String())
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("umon_http_total", "").Add(2)
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	if out := get("/metrics"); !strings.Contains(out, "umon_http_total 2") {
		t.Errorf("/metrics missing counter:\n%s", out)
	}
	if out := get("/vars"); !strings.Contains(out, `"umon_http_total": 2`) {
		t.Errorf("/vars missing counter:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline"); len(out) == 0 {
		t.Error("pprof cmdline empty")
	}
	out := get("/healthz")
	for _, want := range []string{`"status": "ok"`, `"pid"`, `"go_version"`} {
		if !strings.Contains(out, want) {
			t.Errorf("/healthz missing %q:\n%s", want, out)
		}
	}
}

// TestServeHandlerAndShutdown checks the extended-mux path: extra routes
// mounted beside the stock ones, then a graceful Shutdown.
func TestServeHandlerAndShutdown(t *testing.T) {
	r := NewRegistry()
	mux := NewMux(r)
	mux.HandleFunc("/api/ping", func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "pong")
	})
	srv, err := ServeHandler("127.0.0.1:0", mux)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + srv.Addr() + "/api/ping")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(b) != "pong" {
		t.Errorf("custom route answered %q", b)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/api/ping"); err == nil {
		t.Error("server still answering after Shutdown")
	}
	// Nil-receiver contract.
	var nilSrv *Server
	if err := nilSrv.Shutdown(ctx); err != nil {
		t.Errorf("nil Shutdown: %v", err)
	}
}
