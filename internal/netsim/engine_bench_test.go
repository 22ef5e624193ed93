package netsim

import (
	"fmt"
	"testing"

	"umon/internal/workload"
)

// Engine scheduling benchmarks: the timing wheel at realistic
// pending-event counts. A 20 ms fat-tree run keeps hundreds to a few
// thousand events pending — per-port serialization completions, in-flight
// arrivals, per-flow timers — where a binary heap would pay O(log n) sift
// work per operation and the wheel pays an append and a mask.
//
// `make bench-sim` runs these into BENCH_sim.json.

// benchSchedule drives a steady-state churn: `pending` self-rescheduling
// events whose delays cycle through the simulator's characteristic
// horizons (serialization ~85 ns, propagation 1 µs, CNP pacing 25 µs,
// DCQCN timers 55/150 µs — the last beyond one bucket span only for the
// overflow=also case).
func benchSchedule(b *testing.B, pending int) {
	delays := [...]int64{85, 85, 85, 1000, 1000, 8192, 25_000, 55_000}
	e := NewEngine()
	executed := 0
	var fn func()
	i := 0
	fn = func() {
		executed++
		i++
		e.After(delays[i&7], fn)
	}
	for j := 0; j < pending; j++ {
		e.At(int64(j%1000)+1, fn)
	}
	// Warm all tiers (bucket slices, cur, overflow) before timing.
	horizon := int64(1_000_000)
	e.Run(horizon)
	executed = 0
	b.ReportAllocs()
	b.ResetTimer()
	for executed < b.N {
		horizon += 200_000
		e.Run(horizon)
	}
}

func BenchmarkEngineSchedule(b *testing.B) {
	for _, pending := range []int{64, 1024, 8192} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			benchSchedule(b, pending)
		})
	}
}

// BenchmarkEngineEventLoopTyped schedules a batch of events one nanosecond
// apart and drains it, over and over.
func BenchmarkEngineEventLoopTyped(b *testing.B) {
	e := NewEngine()
	var sink int
	fn := func() { sink++ }
	b.ReportAllocs()
	b.ResetTimer()
	const batch = 1024
	var now int64
	for i := 0; i < b.N; i += batch {
		n := batch
		if b.N-i < n {
			n = b.N - i
		}
		for j := 0; j < n; j++ {
			now++
			e.At(now, fn)
		}
		e.Run(now)
	}
	if sink != b.N {
		b.Fatalf("ran %d events, want %d", sink, b.N)
	}
}

// BenchmarkEngineDCQCNTimerRearm measures one self-rearming typed DCQCN
// alpha tick per iteration — the path that used to require a closure
// environment per arm. Expect 0 allocs/op.
func BenchmarkEngineDCQCNTimerRearm(b *testing.B) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	fs := &flowState{cc: newDCQCNState(n.cfg.LinkBps)}
	e := n.eng
	e.push(event{at: dcqcnAlphaTimerNs, kind: evDCQCNAlpha, flow: fs})
	step := int64(dcqcnAlphaTimerNs)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Run(int64(i+1) * step)
	}
}

// BenchmarkEngineArmTimers measures arming a flow's DCQCN timer pair from
// scratch — 4 allocs/op as closures (2 funcs + 2 self-reference cells),
// 0 as typed events.
func BenchmarkEngineArmTimers(b *testing.B) {
	topo, _ := Dumbbell(1)
	n, _ := New(DefaultConfig(topo))
	h := n.hosts[0]
	fs := &flowState{cc: newDCQCNState(n.cfg.LinkBps)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.ccArmed = false
		h.armDCQCNTimers(fs)
		if i&255 == 255 {
			b.StopTimer()
			// Drain with the flow marked finished so every pending tick
			// disarms instead of rearming — the queue returns to empty and
			// arming stays the only measured operation.
			fs.finished = true
			n.eng.Run(n.eng.Now() + dcqcnRateTimerNs + 1)
			fs.finished = false
			b.StartTimer()
		}
	}
}

// BenchmarkFabricSim is the serial-vs-parallel matrix for BENCH_sim.json:
// an end-to-end DCQCN workload simulation on the evaluation fat-trees at
// 1, 2 and 4 shards. One op is a full build-and-run, so ns/op is the
// wall-clock cost of the whole simulation; the shards=1 row is the serial
// engine (run inline, no goroutines), and the speedup of shards=N over it
// is the number a multi-core runner demonstrates. Each run records its
// packet logs, as RunWorkload does, so the committed baseline measures the
// same work it always has.
func BenchmarkFabricSim(b *testing.B) {
	for _, tc := range []struct {
		name    string
		k       int
		horizon int64
	}{
		{name: "fattree-k4", k: 4, horizon: 2_000_000},
		{name: "fattree-k8", k: 8, horizon: 500_000},
	} {
		topo, err := FatTree(tc.k)
		if err != nil {
			b.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		flows, err := workload.Generate(workload.Config{
			Dist: workload.FacebookHadoop(), Load: 0.3, Hosts: topo.Hosts,
			LinkBps: cfg.LinkBps, DurationNs: tc.horizon, Seed: 7,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("topo=%s/shards=%d", tc.name, shards), func(b *testing.B) {
				b.ReportAllocs()
				events := 0
				for i := 0; i < b.N; i++ {
					cfg := DefaultConfig(topo)
					cfg.Shards = shards
					n, err := New(cfg)
					if err != nil {
						b.Fatal(err)
					}
					for _, f := range flows {
						if _, err := n.AddFlow(FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, StartNs: f.StartNs}); err != nil {
							b.Fatal(err)
						}
					}
					n.Record()
					tr := n.Run(tc.horizon)
					if tr.TotalPackets() == 0 {
						b.Fatal("benchmark moved no packets")
					}
					events = tr.Events
				}
				b.ReportMetric(float64(events), "events/op")
			})
		}
	}
}
