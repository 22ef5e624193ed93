package collect

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/wavesketch"
)

// mkFullReport builds a full-version report for host over windows
// [w0, w0+64): bulk flows drive the light part, and one dominant flow is
// hammered hard enough to win a heavy slot, so the window carries heavy
// postings.
func mkFullReport(t testing.TB, host int, w0 int64, dominant flowkey.Key, bulk []flowkey.Key) *report.HostReport {
	t.Helper()
	cfg := wavesketch.DefaultFull()
	cfg.Light.Rows = 3 // mkReport's sketch: the reports of an epoch share one
	f, err := wavesketch.NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for w := int64(0); w < 64; w++ {
		f.Update(dominant, w0+w, 10_000)
	}
	for i, k := range bulk {
		f.Update(k, w0+int64(i%32), int64(100*(i+1)))
	}
	f.Seal()
	return report.FromFull(host, 0, f)
}

// queryFlowScan is the oracle routed answers must equal exactly: every
// resident report queried and the answers max-merged, with no routing at
// all. A report that cannot see the flow answers zeros, so it shares no
// predicate with the routing index it checks.
func queryFlowScan(s *Snapshot, f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	for _, ei := range s.eps {
		for _, q := range ei.set.Queryables() {
			for i, v := range q.QueryRange(f, from, to) {
				if v > out[i] {
					out[i] = v
				}
			}
		}
	}
	return out
}

// TestSharedReportQueriedTwice admits each decoded report into both a
// Collector and a batch Analyzer, as the benchmark pipeline does, so the
// two Queryables of a report share its payload and the index parse built.
// Eight goroutines, half through each, issue their first queries together,
// the same flows in the same order, so both sides parse the same curves off
// the same bytes at once (run under -race), at collector decode budgets of
// one curve and none. Every answer equals the serial one bit for bit.
func TestSharedReportQueriedTwice(t *testing.T) {
	var payloads [][]byte
	var probes []flowkey.Key
	for h := 0; h < 4; h++ {
		bulk := []flowkey.Key{key(100*h + 1), key(100*h + 2), key(100*h + 3), key(7777)}
		payloads = append(payloads, mkFullReport(t, h, 0, key(100*h), bulk).AppendEncode(nil))
		probes = append(probes, key(100*h), bulk[0], bulk[2])
	}
	probes = append(probes, key(7777), key(424242))
	serial := analyzer.New()
	for _, p := range payloads {
		rep, err := report.DecodeBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		serial.AddReport(rep)
	}
	want := make([][]float64, len(probes))
	for i, f := range probes {
		want[i] = serial.QueryFlow(f, 0, 64)
	}
	if slices.Max(want[0]) == 0 {
		t.Fatal("the first dominant flow answers zeros: fixture is off")
	}
	for _, budget := range []int{1, 0} {
		c, a := New(Config{DecodeBudget: budget}), analyzer.New()
		for _, p := range payloads {
			rep, err := report.Decode(bytes.NewReader(p))
			if err != nil {
				t.Fatal(err)
			}
			c.Add(0, rep)
			a.AddReport(rep)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				query := c.QueryFlow
				if g%2 == 1 {
					query = a.QueryFlow
				}
				for i, f := range probes {
					if got := query(f, 0, 64); !slices.Equal(got, want[i]) {
						t.Errorf("budget %d, goroutine %d, flow %s: %v, serially %v", budget, g, f, got, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestSnapshotQueryMatchesScan is the routing property test: for a window
// mixing light-only and full (heavy-carrying) reports across several
// epochs laid out in time (epoch e in windows [100e, 100e+64)), the
// collector's routed QueryFlow answer and the batch analyzer's over the
// same reports must both be reflect.DeepEqual — bit-identical floats — to
// the linear scan over every resident report, whatever the range. One
// flow sits in 11 more hosts' reports of every epoch, so a covering query
// for it merges more than 64 reports.
func TestSnapshotQueryMatchesScan(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{WindowEpochs: 6, Stats: NewStats(reg)})
	a := analyzer.New()
	add := func(e uint64, rep *report.HostReport) {
		c.Add(e, rep)
		a.AddReport(rep)
	}
	wide := key(7777)
	probes := []flowkey.Key{wide}
	for e := uint64(0); e < 6; e++ {
		w0 := 100 * int64(e)
		for h := 0; h < 3; h++ {
			f := key(int(e)*10 + h)
			probes = append(probes, f)
			add(e, mkReport(h, f, w0+10, int64(100*(h+1))))
		}
		var bulk []flowkey.Key
		for j := 0; j < 12; j++ {
			bulk = append(bulk, key(1000+int(e)*12+j))
		}
		probes = append(probes, key(900+int(e)))
		probes = append(probes, bulk...)
		add(e, mkFullReport(t, 9, w0, key(900+int(e)), bulk))
		for h := 20; h < 31; h++ {
			add(e, mkReport(h, wide, w0+int64(h), int64(h)))
		}
	}
	routed := c.Status().ReportsRouted
	c.QueryFlow(wide, -10, 600)
	if n := c.Status().ReportsRouted - routed; n <= 64 {
		t.Fatalf("the wide flow routes to %d reports, want more than 64", n)
	}

	snap := c.Snapshot()
	if ver := snap.version; ver == 0 {
		t.Fatal("snapshot version did not advance past the empty window")
	}
	check := func(f flowkey.Key, from, to int64) {
		t.Helper()
		want := queryFlowScan(snap, f, from, to)
		if got := c.QueryFlow(f, from, to); !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryFlow(%s, %d, %d) = %v, want scan answer %v", f, from, to, got, want)
		}
		if got := a.QueryFlow(f, from, to); !reflect.DeepEqual(got, want) {
			t.Fatalf("analyzer QueryFlow(%s, %d, %d) = %v, want scan answer %v", f, from, to, got, want)
		}
	}
	if st := c.Status(); st.WindowSpan != [2]int64{0, 564} {
		t.Fatalf("window span = %v, want [0 564)", st.WindowSpan)
	}
	rng := rand.New(rand.NewSource(42))
	for _, f := range probes {
		e := int64(rng.Intn(6))
		from := 100*e + int64(rng.Intn(30))
		check(f, from, from+int64(rng.Intn(20))) // inside one epoch
		check(f, 100*e+50, 100*e+120)            // straddling two
		check(f, -60, int64(rng.Intn(2))-1)      // before the window, or up to its first sample
		check(f, 563+int64(rng.Intn(2)), 700)    // after it, or from its last sample
		check(f, -10, 600)                       // covering it
		check(f, from, from)                     // empty
		check(f, from, from-5)                   // reversed
	}
	for i := 0; i < 200; i++ { // flows the window never saw
		check(flowkey.Key{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: uint8(rng.Intn(256)),
		}, 0, 40)
	}

	// Every query decomposed the full resident set into visited + skipped.
	st := c.Status()
	if st.ReportsRouted <= 0 || st.ReportsRouteSkipped <= 0 {
		t.Fatalf("selectivity counters = %d/%d, want both positive", st.ReportsRouted, st.ReportsRouteSkipped)
	}
	visited := reg.Value("umon_collect_query_reports_visited_total")
	skipped := reg.Value("umon_collect_query_reports_skipped_total")
	if visited != st.ReportsRouted || skipped != st.ReportsRouteSkipped {
		t.Fatalf("telemetry %d/%d disagrees with status %d/%d", visited, skipped, st.ReportsRouted, st.ReportsRouteSkipped)
	}
	queries := int64(1 + len(probes)*7 + 200) // the wide flow's count, the checks, the unseen flows
	if total := st.ReportsRouted + st.ReportsRouteSkipped; total != queries*int64(st.ResidentReports) {
		t.Fatalf("visited+skipped = %d, want queries×resident = %d", total, queries*int64(st.ResidentReports))
	}
}

// TestSnapshotHeldDuringIngest is the -race proof of the lock-free
// contract: a query-side goroutine holds one snapshot and keeps reading it
// while the ingest goroutine admits and evicts right past it, and other
// readers hammer the live collector. The held snapshot's answers must stay
// bit-identical throughout — including for epochs the live window has
// since evicted — while the live window demonstrably moves on.
func TestSnapshotHeldDuringIngest(t *testing.T) {
	c := New(Config{WindowEpochs: 4})
	for e := uint64(0); e < 4; e++ {
		for h := 0; h < 2; h++ {
			c.Add(e, mkReport(h, key(int(e)*2+h), int64(e)+5, int64(100*(h+1))))
		}
	}
	held := c.Snapshot()
	heldVer := held.version
	var heldFlows []flowkey.Key
	for i := 0; i < 8; i++ {
		heldFlows = append(heldFlows, key(i))
	}
	want := make(map[flowkey.Key][]float64)
	for _, f := range heldFlows {
		want[f] = held.QueryFlow(f, 0, 16)
	}

	const extraEpochs = 64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) { // readers against both the held and the live view
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				f := heldFlows[(i+r)%len(heldFlows)]
				if got := held.QueryFlow(f, 0, 16); !reflect.DeepEqual(got, want[f]) {
					t.Errorf("held snapshot answer drifted mid-ingest for %s", f)
					return
				}
				c.QueryFlow(key(i%200), 0, 16)
				c.Status()
				c.Window()
			}
		}(r)
	}
	for e := uint64(4); e < 4+extraEpochs; e++ { // the single ingest writer
		for h := 0; h < 2; h++ {
			c.Add(e, mkReport(h, key(int(e)*2+h), int64(e%30)+5, int64(100*(h+1))))
		}
	}
	close(stop)
	wg.Wait()

	st := c.Status()
	if st.EvictionFloor != 4+extraEpochs-4 {
		t.Errorf("eviction floor = %d, want %d (ingest must have evicted)", st.EvictionFloor, 4+extraEpochs-4)
	}
	live := c.Snapshot()
	if live.version <= heldVer {
		t.Errorf("live version %d did not advance past held %d", live.version, heldVer)
	}
	// The held snapshot still answers for its (long-evicted) window,
	// bit-identical to what it said before ingest moved.
	for _, f := range heldFlows {
		if got := held.QueryFlow(f, 0, 16); !reflect.DeepEqual(got, want[f]) {
			t.Fatalf("held snapshot answer changed after eviction for %s: %v != %v", f, got, want[f])
		}
	}
	if epochs, _ := held.Window(); epochs[0] != 0 {
		t.Errorf("held window slid: %v", epochs)
	}
}

// TestQueryTouchesOnlyOverlappingEpochs pins time as a routing dimension:
// on a 16-epoch window in which every report might see the flow, a query
// over one epoch's windows visits and decodes that epoch's reports only,
// a query outside every span touches nothing, and a host re-admission
// recomputes the epoch's span.
func TestQueryTouchesOnlyOverlappingEpochs(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{WindowEpochs: 16, Stats: NewStats(reg)})
	f := key(1)
	for e := uint64(0); e < 16; e++ {
		for h := 0; h < 2; h++ {
			c.Add(e, mkReport(h, f, 256*int64(e)+7, int64(100*(h+1))))
		}
	}
	snap := c.Snapshot()
	counters := func() (visited, cold, hits int64) {
		return reg.Value("umon_collect_query_reports_visited_total"),
			reg.Value("umon_decode_cold_total"), reg.Value("umon_decode_cache_hits_total")
	}

	if got := snap.QueryFlow(f, 256*3, 256*4); got[7] != 200 {
		t.Fatalf("epoch 3 answer at window 7 = %v, want 200", got[7])
	}
	visited, cold, _ := counters()
	if visited != 2 {
		t.Errorf("one-epoch query visited %d reports, want epoch 3's 2 of 32", visited)
	}
	for i, ei := range snap.eps {
		curves := 0
		for _, q := range ei.set.Queryables() {
			curves += q.ResidentCurves()
		}
		if (curves > 0) != (snap.epochs[i] == 3) {
			t.Errorf("epoch %d holds %d decoded curves after a query of epoch 3", snap.epochs[i], curves)
		}
	}
	if resident := int64(snap.ResidentCurves()); cold != resident || cold == 0 {
		t.Errorf("%d cold decodes, %d resident curves", cold, resident)
	}

	// Past the window, before it, in the gap between two epochs' curves,
	// empty and reversed: nothing routed, no curve looked at.
	for _, r := range [][2]int64{{256 * 16, 256 * 17}, {-100, 0}, {256*3 + 8, 256 * 4}, {256*3 + 7, 256*3 + 7}, {256 * 4, 256 * 3}} {
		for _, v := range snap.QueryFlow(f, r[0], r[1]) {
			if v != 0 {
				t.Errorf("[%d, %d) answered %v outside every span", r[0], r[1], v)
			}
		}
	}
	if v, c2, h2 := counters(); v != visited || c2 != cold || h2 != 0 {
		t.Errorf("queries outside every span: visited %d→%d, cold %d→%d, hits %d", visited, v, cold, c2, h2)
	}

	c.Add(3, mkReport(0, f, 256*3+200, 50))
	if got := c.QueryFlow(f, 256*3+8, 256*4); got[192] != 50 {
		t.Errorf("re-admitted report at window 968 answers %v, want 50", got[192])
	}
	if got := c.QueryFlow(f, 256*3, 256*3+8); got[7] != 200 {
		t.Errorf("host 1's report of epoch 3 answers %v after host 0's re-admission, want 200", got[7])
	}
	if v, _, _ := counters(); v != visited+2 {
		t.Errorf("after re-admission two queries visited %d reports, want one each", v-visited)
	}
}

// TestEventLogBounded shrinks the log's bound and emits three times as
// many events, one per poll, holding a snapshot at every step: Events keeps
// exactly the newest, Status counts every event ever emitted, and every held
// snapshot — taken before, at and after each trim of the log — still reads
// the events it was published with.
func TestEventLogBounded(t *testing.T) {
	for _, logCap := range []int{1, 4, 16} { // 16: the log trims with slack (n/8 > 0)
		var all []analyzer.Event
		c := New(Config{GapNs: 50_000, OnEvent: func(ev analyzer.Event) { all = append(all, ev) }})
		c.eventCap = logCap
		type held struct {
			snap *Snapshot
			want []analyzer.Event
		}
		var holds []held
		retained := func() []analyzer.Event { return all[max(0, len(all)-logCap):] }
		for i := 0; i <= 3*logCap; i++ {
			// Event i: two mirrors; they close event i-1 (a gap and more ago).
			t0 := int64(i) * 1_000_000
			c.AddMirror(mirrorAt(0, int16(i%3), t0+1_000, key(i)))
			c.AddMirror(mirrorAt(0, int16(i%3), t0+2_000, key(i)))
			if i > 0 && c.Poll() != 1 {
				t.Fatalf("cap %d: poll %d did not emit exactly event %d", logCap, i, i-1)
			}
			holds = append(holds, held{c.Snapshot(), append([]analyzer.Event(nil), retained()...)})
		}
		if len(all) != 3*logCap {
			t.Fatalf("cap %d: emitted %d events, want %d", logCap, len(all), 3*logCap)
		}
		if got := c.Status().EventsEmitted; got != 3*logCap {
			t.Errorf("cap %d: Status.EventsEmitted = %d, want %d", logCap, got, 3*logCap)
		}
		if got := c.Events(); !reflect.DeepEqual(got, retained()) {
			t.Errorf("cap %d: Events() = %d events %v, want the newest %d", logCap, len(got), got, logCap)
		}
		for i, h := range holds {
			if got := h.snap.Events(); len(got) != len(h.want) || (len(got) > 0 && !reflect.DeepEqual(got, h.want)) {
				t.Fatalf("cap %d: snapshot held since poll %d reads %v, was published with %v", logCap, i, got, h.want)
			}
		}
	}
}

// TestOnEventFollowsPublication: OnEvent runs after the snapshot that holds
// its event is published, so a reader it wakes never looks for the event in
// vain. Inside the callback the live EventLog already ends with the event,
// under the event's emission id.
func TestOnEventFollowsPublication(t *testing.T) {
	var c *Collector
	seen := 0
	c = New(Config{GapNs: 50_000, OnEvent: func(ev analyzer.Event) {
		evs, first := c.Snapshot().EventLog()
		if id := seen; id < first || id >= first+len(evs) || !reflect.DeepEqual(evs[id-first], ev) {
			t.Errorf("OnEvent of event %d: the published log holds ids [%d, %d) without it", id, first, first+len(evs))
		}
		seen++
	}})
	for i := 0; i < 4; i++ {
		t0 := int64(i) * 1_000_000
		c.AddMirror(mirrorAt(0, int16(i%2), t0+1_000, key(i)))
		c.AddMirror(mirrorAt(0, int16(i%2), t0+2_000, key(i)))
		c.Poll()
	}
	c.Drain()
	if seen != 4 {
		t.Fatalf("OnEvent saw %d events, want 4", seen)
	}
}
