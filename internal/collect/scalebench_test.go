package collect

import (
	"reflect"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/wavesketch"
)

// The fleet-scale query fixture: 125 hosts × 16 epochs = 2,000 resident
// (host, epoch) reports, each carrying 512 distinct flows — 1,024,000
// distinct flow keys in the window. A wider-than-default light part (W =
// 4096) keeps per-report bucket occupancy low (~12% per row), so routing a
// sparse flow hits its one true report plus a handful of false passes
// instead of the whole window — the regime the routing index is built for.
const (
	scaleHosts      = 125
	scaleEpochs     = 16
	scaleFlowsPer   = 512
	scaleReports    = scaleHosts * scaleEpochs
	scaleFlows      = scaleReports * scaleFlowsPer
	scaleWindowsMax = 32
	// scaleProbes bounds the benchmarks' query working set: probes cycle
	// through this many distinct flows (stride-2049 over the 1M id space),
	// and the fixture pre-warms their memoized decode caches, so every
	// run measures steady-state serving latency rather than first-touch
	// decode cost.
	scaleProbes = 8192
)

// scaleProbe maps a query sequence number to its probe flow id.
func scaleProbe(n int64) int {
	return int(n%scaleProbes*2049) % scaleFlows
}

var scaleCfg = wavesketch.Config{Rows: 3, Width: 4096, Levels: 8, K: 1, Seed: 0x5eed0f}

// scaleKey maps a dense flow id to a distinct 5-tuple.
func scaleKey(id int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0b000000 + uint32(id), DstIP: 0x0ac8c8c8,
		SrcPort: uint16(20000 + id%4096), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

type scaleFixture struct {
	col *Collector
	// stride lays the epochs out in time: epoch e's flows sit in windows
	// [stride·e, stride·e+32). 0 stacks every epoch into [0, 32).
	stride int64
	reps   []*report.HostReport // admission order: (host, epoch) = (ri/16, ri%16)
	event  analyzer.Event
	// mirrorNs hands each Mixed-bench ingest pass a fresh, monotonically
	// increasing mirror timestamp range.
	mirrorNs atomic.Int64
}

// scaleLocalStride is the time-laid-out fixture's epoch pitch: 256 windows,
// one 2.097 ms epoch of 8.192 µs windows, as a deployment's epochs fall.
const scaleLocalStride = 256

var (
	scaleOnce, scaleLocalOnce sync.Once
	scaleFix, scaleLocalFix   *scaleFixture
)

// buildScaleFixture admits the 2,000-report window once, shared by every
// scale benchmark and the selectivity test, with every epoch's flows
// stacked into windows [0, 32) — no query range separates two epochs.
func buildScaleFixture(tb testing.TB) *scaleFixture {
	tb.Helper()
	scaleOnce.Do(func() { scaleFix = newScaleFixture(0) })
	return scaleFix
}

// buildScaleFixtureLocal is the same window laid out in time: epoch e
// occupies windows [256e, 256e+32), and a probe asks its own epoch.
func buildScaleFixtureLocal(tb testing.TB) *scaleFixture {
	tb.Helper()
	scaleLocalOnce.Do(func() { scaleLocalFix = newScaleFixture(scaleLocalStride) })
	return scaleLocalFix
}

// probeRange is the 32-window range flow id's own epoch occupies.
func (fx *scaleFixture) probeRange(id int) (from, to int64) {
	from = fx.stride * int64(id/scaleFlowsPer%scaleEpochs)
	return from, from + scaleWindowsMax
}

// newScaleFixture builds one window. Sealing reports is host work;
// admission itself is the serial ingest path under measurement elsewhere.
func newScaleFixture(stride int64) *scaleFixture {
	reps := make([]*report.HostReport, scaleReports)
	for ri := range reps {
		host, epoch := ri/scaleEpochs, ri%scaleEpochs
		s, err := wavesketch.NewBasic(scaleCfg)
		if err != nil {
			panic(err)
		}
		base := ri * scaleFlowsPer
		for j := 0; j < scaleFlowsPer; j++ {
			id := base + j
			s.Update(scaleKey(id), stride*int64(epoch)+int64(id%scaleWindowsMax), int64(id+1))
		}
		s.Seal()
		reps[ri] = report.FromBasic(host, int64(epoch)*20_000_000, s)
	}
	col := New(Config{WindowEpochs: scaleEpochs})
	for ri, rep := range reps {
		col.Add(uint64(ri%scaleEpochs), rep)
	}
	// One emitted event with 8 flows, for Replay: a mirror burst closed
	// by a later mirror advancing the watermark past the gap.
	for i := 0; i < 8; i++ {
		col.AddMirror(mirrorAt(0, 1, int64(1_000+i*100), scaleKey(i*scaleFlowsPer)))
	}
	col.AddMirror(mirrorAt(0, 2, 500_000, scaleKey(0)))
	if col.Poll() < 1 {
		panic("scale fixture emitted no event")
	}
	// Warm the probe set's decode caches through the routed path, so
	// benchmarks and the selectivity test measure steady state.
	fx := &scaleFixture{col: col, stride: stride, reps: reps, event: col.Events()[0]}
	snap := col.Snapshot()
	for n := int64(0); n < scaleProbes; n++ {
		id := scaleProbe(n)
		from, to := fx.probeRange(id)
		snap.QueryFlow(scaleKey(id), from, to)
	}
	fx.mirrorNs.Store(600_000)
	return fx
}

// TestScaleRoutingSelectivity pins the acceptance criterion on the full-
// size window: querying sparse flows (each present in exactly one report),
// the routing index visits under 10% of the 2,000 resident reports —
// bucket-bitmap false passes included — while answers stay identical to
// the full scan.
func TestScaleRoutingSelectivity(t *testing.T) {
	if perQuery := scaleSelectivity(t, buildScaleFixture); perQuery >= 0.10*scaleReports {
		t.Fatalf("sparse-flow selectivity %.2f reports/query ≥ 10%% of resident", perQuery)
	}
}

// TestScaleRoutingSelectivityLocal pins what time adds on the window laid
// out in time: a probe of its own epoch visits the one report that holds
// the flow plus that epoch's false passes only — a sixteenth of the
// stacked window's — so under 1.5 reports per query.
func TestScaleRoutingSelectivityLocal(t *testing.T) {
	if perQuery := scaleSelectivity(t, buildScaleFixtureLocal); perQuery < 1 || perQuery >= 1.5 {
		t.Fatalf("own-epoch selectivity %.2f reports/query, want [1, 1.5)", perQuery)
	}
}

// scaleSelectivity queries 500 probes over their own epoch's range and
// returns the reports visited per query, checking the decomposition into
// visited + skipped and, on a sample, the answer against the full scan.
func scaleSelectivity(t *testing.T, build func(testing.TB) *scaleFixture) float64 {
	if testing.Short() {
		t.Skip("scale fixture is expensive")
	}
	fx := build(t)
	snap := fx.col.Snapshot()
	if _, resident := snap.Window(); resident != scaleReports {
		t.Fatalf("resident = %d, want %d", resident, scaleReports)
	}
	before := fx.col.Stats().RouteVisited.Value()
	beforeSkip := fx.col.Stats().RouteSkipped.Value()
	const queries = 500
	answered := 0
	for i := 0; i < queries; i++ {
		id := scaleProbe(int64(i))
		from, to := fx.probeRange(id)
		got := snap.QueryFlow(scaleKey(id), from, to)
		if slices.ContainsFunc(got, func(v float64) bool { return v != 0 }) {
			answered++
		}
		if i%50 == 0 {
			// Spot-check exactness against the full scan at this scale too.
			if want := queryFlowScan(snap, scaleKey(id), from, to); !reflect.DeepEqual(got, want) {
				t.Fatalf("flow %d: routed answer diverges from scan", id)
			}
		}
	}
	visited := fx.col.Stats().RouteVisited.Value() - before
	skipped := fx.col.Stats().RouteSkipped.Value() - beforeSkip
	if visited+skipped != queries*scaleReports {
		t.Fatalf("visited+skipped = %d, want %d", visited+skipped, queries*scaleReports)
	}
	// K = 1 keeps one detail per bucket, so the per-window minimum over three
	// rows is all zero for a few flows; most must find their traffic.
	if answered < queries*9/10 {
		t.Fatalf("%d of %d probes found traffic in their own epoch's windows", answered, queries)
	}
	perQuery := float64(visited) / queries
	t.Logf("routing selectivity: %.2f reports/query of %d resident (%.2f%%), %d/%d answers non-zero",
		perQuery, scaleReports, 100*perQuery/scaleReports, answered, queries)
	return perQuery
}

// TestScaleCurveReadsPerQuery is the exact companion of the light
// estimate's span pass, on the stacked window admitted afresh with decode
// telemetry attached: over scaleSelectivity's 500 probes routing visits the
// very reports it did before the pass, 2,117, and those reports read — from
// the memo or by a cold decode — at most half the 6,351 curves they read
// before it (12.7 a query), since a report whose rows' curves share no
// window, most routing false passes here, reads none.
func TestScaleCurveReadsPerQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("scale fixture is expensive")
	}
	fx := buildScaleFixture(t)
	reg := telemetry.NewRegistry()
	col := New(Config{WindowEpochs: scaleEpochs, Stats: NewStats(reg)})
	for ri, rep := range fx.reps {
		if err := col.Add(uint64(ri%scaleEpochs), rep); err != nil {
			t.Fatal(err)
		}
	}
	snap := col.Snapshot()
	const queries = 500
	for i := 0; i < queries; i++ {
		id := scaleProbe(int64(i))
		from, to := fx.probeRange(id)
		snap.QueryFlow(scaleKey(id), from, to)
	}
	reads := reg.Value("umon_decode_cold_total") + reg.Value("umon_decode_cache_hits_total")
	visited := col.Stats().RouteVisited.Value()
	t.Logf("%.2f curves read and %.3f reports visited a query", float64(reads)/queries, float64(visited)/queries)
	if visited != 2117 {
		t.Errorf("%d reports visited over %d queries, want 2117", visited, queries)
	}
	if 2*reads > 6351 {
		t.Errorf("%d curves read over %d queries, want at most half of 6351", reads, queries)
	}
}

// reportLatencies attaches p50/p99 latency and overall QPS to a benchmark
// whose per-op durations were collected across RunParallel goroutines.
func reportLatencies(b *testing.B, lats []time.Duration) {
	if len(lats) == 0 {
		return
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	b.ReportMetric(float64(lats[len(lats)/2]), "p50-ns")
	b.ReportMetric(float64(lats[len(lats)*99/100]), "p99-ns")
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "qps")
}

// latCollector accumulates per-goroutine latency samples without
// contending on the hot path.
type latCollector struct {
	mu   sync.Mutex
	lats []time.Duration
}

func (lc *latCollector) add(local []time.Duration) {
	lc.mu.Lock()
	lc.lats = append(lc.lats, local...)
	lc.mu.Unlock()
}

// BenchmarkQueryScaleFlow is the headline number: concurrent routed
// QueryFlow against the 2,000-report / 1M-flow window.
func BenchmarkQueryScaleFlow(b *testing.B) { benchScaleFlow(b, buildScaleFixture(b)) }

// BenchmarkQueryScaleFlowLocal is the same load on the window laid out in
// time, each probe asking its own epoch: the number time routing moves.
func BenchmarkQueryScaleFlowLocal(b *testing.B) { benchScaleFlow(b, buildScaleFixtureLocal(b)) }

func benchScaleFlow(b *testing.B, fx *scaleFixture) {
	var lc latCollector
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 4096)
		for pb.Next() {
			id := scaleProbe(seq.Add(1))
			from, to := fx.probeRange(id)
			start := time.Now()
			fx.col.QueryFlow(scaleKey(id), from, to)
			local = append(local, time.Since(start))
		}
		lc.add(local)
	})
	b.StopTimer()
	reportLatencies(b, lc.lats)
}

// BenchmarkQueryScaleReplay replays the fixture event (8 flows) against
// the full window, concurrently.
func BenchmarkQueryScaleReplay(b *testing.B) {
	fx := buildScaleFixture(b)
	var lc latCollector
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 1024)
		for pb.Next() {
			start := time.Now()
			fx.col.Replay(fx.event, 250_000)
			local = append(local, time.Since(start))
		}
		lc.add(local)
	})
	b.StopTimer()
	reportLatencies(b, lc.lats)
}

// BenchmarkQueryScaleMixed measures query latency while the ingest side
// keeps mutating: one writer goroutine folds mirrors, runs online
// detection passes, and re-admits reports (publishing a fresh snapshot
// each time) while the parallel query load runs. This is the serving
// regime the lock-free read plane exists for — queries never wait on the
// writer.
func BenchmarkQueryScaleMixed(b *testing.B) {
	fx := buildScaleFixture(b)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			ns := fx.mirrorNs.Add(1_000)
			fx.col.AddMirror(mirrorAt(1, 1, ns, scaleKey(i%scaleFlows)))
			if i%64 == 0 {
				fx.col.Poll()
			}
			if i%16 == 0 {
				// Re-admit an existing (host, epoch) report: a host-overwrite
				// admission that rebuilds the epoch's routing index and
				// publishes a fresh snapshot, without changing window contents.
				ri := (i / 16) % scaleReports
				fx.col.Add(uint64(ri%scaleEpochs), fx.reps[ri])
			}
			i++
		}
	}()
	var lc latCollector
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		local := make([]time.Duration, 0, 4096)
		for pb.Next() {
			id := scaleProbe(seq.Add(1))
			start := time.Now()
			fx.col.QueryFlow(scaleKey(id), 0, scaleWindowsMax)
			local = append(local, time.Since(start))
		}
		lc.add(local)
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	reportLatencies(b, lc.lats)
}
