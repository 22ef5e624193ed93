package analyzer

import (
	"math/rand"
	"sync"
	"testing"

	"umon/internal/measure"
	"umon/internal/report"
	"umon/internal/wavesketch"
)

// buildAnalyzer deploys a small multi-host measurement: one full sketch
// per host fed disjoint flow sets, plus a mirror stream forming a few
// events per port.
func buildAnalyzer(t testing.TB, hosts int) (*Analyzer, []Event) {
	t.Helper()
	a := New()
	for h := 0; h < hosts; h++ {
		cfg := wavesketch.DefaultFull()
		cfg.Light.K = 32
		full, err := wavesketch.NewFull(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for w := int64(0); w < 256; w++ {
			for f := 0; f < 8; f++ {
				full.Update(key(h*100+f), w, int64(400+200*f))
			}
		}
		full.Seal()
		a.AddReport(report.FromFull(h, 0, full))
	}
	for p := int16(0); p < 4; p++ {
		for i := int64(0); i < 40; i++ {
			ns := i*10_000 + int64(p)*3_000_000
			a.AddMirror(mirror(ns, p/2, p%2, key(int(p)*100+int(i%8))))
		}
	}
	events := a.DetectEvents(50_000)
	if len(events) == 0 {
		t.Fatal("no events to replay")
	}
	return a, events
}

// TestAnalyzerConcurrentQueries hammers one Analyzer's query plane —
// QueryFlow, Replay, routing — from many goroutines (run under
// -race); answers must equal the sequential baseline.
func TestAnalyzerConcurrentQueries(t *testing.T) {
	a, events := buildAnalyzer(t, 4)
	flows := make([]int, 0)
	for h := 0; h < 4; h++ {
		for f := 0; f < 8; f++ {
			flows = append(flows, h*100+f)
		}
	}
	baseline := make([][]float64, len(flows))
	for i, f := range flows {
		baseline[i] = a.QueryFlow(key(f), 0, 256)
	}
	baseView := ReplayWith(events[0], 20*measure.WindowNanos, a.QueryFlow)

	var wg sync.WaitGroup
	const goroutines = 12
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 30; iter++ {
				fi := rng.Intn(len(flows))
				got := a.QueryFlow(key(flows[fi]), 0, 256)
				for i := range got {
					if got[i] != baseline[fi][i] {
						t.Errorf("flow %d win %d: %v vs %v", flows[fi], i, got[i], baseline[fi][i])
						return
					}
				}
				routed(a, key(flows[fi]))
				if iter%10 == 0 {
					view := ReplayWith(events[0], 20*measure.WindowNanos, a.QueryFlow)
					for f, c := range view.Curves {
						want := baseView.Curves[f]
						for i := range c {
							if c[i] != want[i] {
								t.Errorf("replay flow %s win %d: %v vs %v", f, i, c[i], want[i])
								return
							}
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestRoutingSkipsBlindReports checks the routing index: a flow only one
// host saw must route to (at most) that host's report plus hash-collision
// false positives, never to provably-zero reports — and QueryFlow must
// return identical results to querying everything.
func TestRoutingSkipsBlindReports(t *testing.T) {
	a, _ := buildAnalyzer(t, 4)
	// Flows of host 0 are absent from hosts 1-3's sketches; with disjoint
	// flow sets the bitmaps usually rule the other reports out.
	touched := routed(a, key(0))
	if touched < 1 || touched > 4 {
		t.Fatalf("routed to %d reports, want within [1,4]", touched)
	}
	// A flow nobody saw must not route anywhere unless a full row of
	// collisions fakes its presence; its estimate must be all zero either
	// way.
	for _, v := range a.QueryFlow(key(99_999), 0, 256) {
		if v != 0 {
			t.Fatal("absent flow has non-zero estimate")
		}
	}
}

// TestDetectEventsIncremental checks the streaming clusterer against the
// batch semantics: events from in-order ingest must match a re-sorted
// rebuild, repeated calls must be stable, out-of-order ingest must heal,
// and later mirrors may keep extending the open event.
func TestDetectEventsIncremental(t *testing.T) {
	a := New()
	for i := int64(0); i < 5; i++ {
		a.AddMirror(mirror(1000+i*10_000, 0, 0, key(1)))
	}
	ev1 := a.DetectEvents(50_000)
	if len(ev1) != 1 || ev1[0].Packets != 5 {
		t.Fatalf("events = %+v", ev1)
	}
	// A second call must return the same thing (snapshot, not drain).
	ev2 := a.DetectEvents(50_000)
	if len(ev2) != 1 || ev2[0].Packets != 5 || ev2[0].EndNs != ev1[0].EndNs {
		t.Fatalf("second call diverged: %+v vs %+v", ev2, ev1)
	}
	// Still within the gap: the open event keeps extending.
	a.AddMirror(mirror(1000+5*10_000, 0, 0, key(2)))
	ev3 := a.DetectEvents(50_000)
	if len(ev3) != 1 || ev3[0].Packets != 6 || len(ev3[0].Flows) != 2 {
		t.Fatalf("open event did not extend: %+v", ev3)
	}
	// Out-of-order mirror before the event: rebuild must produce two
	// events (the early one separated by more than the gap).
	a.AddMirror(mirror(100, 0, 0, key(3)))
	// 1000-100 < gap, so it joins the first cluster; use a far-away one.
	a.AddMirror(mirror(5_000_000, 0, 0, key(3)))
	a.AddMirror(mirror(200, 0, 0, key(4))) // out of order again
	ev4 := a.DetectEvents(50_000)
	if len(ev4) != 2 {
		t.Fatalf("after out-of-order ingest: %+v", ev4)
	}
	if ev4[0].Packets != 8 { // 6 + the two early stragglers within gap
		t.Errorf("first event packets = %d, want 8", ev4[0].Packets)
	}
	// Changing the gap rebuilds: a tiny gap splits every mirror apart.
	evTiny := a.DetectEvents(1)
	if len(evTiny) <= len(ev4) {
		t.Errorf("tiny gap produced %d events, want more than %d", len(evTiny), len(ev4))
	}
	// And switching back restores the coarse clustering.
	evBack := a.DetectEvents(50_000)
	if len(evBack) != 2 {
		t.Errorf("gap restore: %+v", evBack)
	}
}

// BenchmarkReplay measures a full event replay — routing, decoding (warm),
// and per-flow queries — on a multi-report analyzer.
func BenchmarkReplay(b *testing.B) {
	a, events := buildAnalyzer(b, 8)
	best := events[0]
	for _, ev := range events {
		if ev.Packets > best.Packets {
			best = ev
		}
	}
	ReplayWith(best, 30*measure.WindowNanos, a.QueryFlow) // warm the reconstruction caches
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ReplayWith(best, 30*measure.WindowNanos, a.QueryFlow)
	}
}
