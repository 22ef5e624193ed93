package netsim

import (
	"reflect"
	"testing"

	"umon/internal/workload"
)

// The sharded engine's contract is byte-identical traces at every shard
// count: link events carry their (link id, per-link seq) total-order key
// from the sending port, per-port RNG streams make marking independent of
// event interleaving, and finalize merges per-shard buffers canonically.
// These tests pin that contract on three workload families (DCQCN
// workload, DCTCP + on-off, a tail-dropping incast), across shard counts,
// between lockstep and goroutine execution, and against the serial heap
// oracle of engine_oracle_test.go.

// shardScenario describes one determinism workload. Construction and
// population are split so the heap oracle can be pinned on a network
// before any flow-start event is scheduled (an event pushed before would
// land in the wheel, where the oracle's dispatch loop never looks).
type shardScenario struct {
	name     string
	horizon  int64
	make     func(t *testing.T, shards int) *Network
	populate func(t *testing.T, n *Network)
}

// build constructs and populates in one step, optionally preparing the
// fresh network (pinHeapOracle) in between.
func (sc *shardScenario) build(t *testing.T, shards int, prep func(n *Network)) *Network {
	n := sc.make(t, shards)
	if prep != nil {
		prep(n)
	}
	sc.populate(t, n)
	n.Record()
	return n
}

func shardScenarios() []shardScenario {
	fatTree := func(t *testing.T, shards int) *Network {
		topo, err := FatTree(4)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(topo)
		cfg.Shards = shards
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	return []shardScenario{
		{
			name: "dcqcn-workload", horizon: 2_000_000, make: fatTree,
			populate: func(t *testing.T, n *Network) {
				flows, err := workload.Generate(workload.Config{
					Dist: workload.FacebookHadoop(), Load: 0.3, Hosts: n.topo.Hosts,
					LinkBps: n.cfg.LinkBps, DurationNs: 1_500_000, Seed: 11,
				})
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range flows {
					if _, err := n.AddFlow(FlowSpec{Src: f.Src, Dst: f.Dst, Bytes: f.Bytes, StartNs: f.StartNs}); err != nil {
						t.Fatal(err)
					}
				}
			},
		},
		{
			name: "dctcp-and-onoff", horizon: 2_000_000, make: fatTree,
			populate: func(t *testing.T, n *Network) {
				n.AddFlow(FlowSpec{Src: 0, Dst: 15, Bytes: 8_000_000, CC: CCDCTCP})
				n.AddFlow(FlowSpec{Src: 1, Dst: 15, Bytes: 8_000_000, CC: CCDCTCP, StartNs: 5_000})
				n.AddFlow(FlowSpec{Src: 2, Dst: 15, Bytes: 1 << 30, FixedRateBps: 60e9,
					OnNs: 100_000, OffNs: 150_000})
				n.AddFlow(FlowSpec{Src: 3, Dst: 14, Bytes: 4_000_000, CC: CCDCTCP, StartNs: 12_345})
			},
		},
		{
			name: "droptail-incast", horizon: 2_000_000,
			make: func(t *testing.T, shards int) *Network {
				topo, err := Dumbbell(8)
				if err != nil {
					t.Fatal(err)
				}
				cfg := DefaultConfig(topo)
				cfg.BufferBytes = 300 << 10
				cfg.Shards = shards
				n, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				return n
			},
			populate: func(t *testing.T, n *Network) {
				for s := 0; s < 8; s++ {
					n.AddFlow(FlowSpec{Src: s, Dst: 8, Bytes: 5_000_000, StartNs: int64(s) * 1000})
				}
			},
		},
	}
}

// normalizeShardTrace prepares a trace for cross-shard-count comparison:
// Events counts engine bookkeeping (one queue-sampling tick chain per
// shard), so it legitimately depends on the shard count and is zeroed.
// Everything else — every packet record, CE mark, drop, episode, queue
// sample and flow stat — must match exactly.
func normalizeShardTrace(tr *Trace) {
	normalizeTrace(tr)
	tr.Events = 0
}

// TestParallelMatchesSerial is the acceptance determinism check: full-sim
// traces must be deeply identical between the serial engine and sharded
// runs at several shard counts, on DCQCN, DCTCP+on-off and tail-dropping
// incast workloads. Run under -race in CI, it also proves the windows share no
// unsynchronized state.
func TestParallelMatchesSerial(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			serial := sc.build(t, 1, nil).Run(sc.horizon)
			normalizeShardTrace(serial)
			if serial.TotalPackets() == 0 {
				t.Fatal("scenario moved no packets")
			}
			for _, shards := range []int{2, 3, 4} {
				n := sc.build(t, shards, nil)
				if len(n.shards) != shards {
					t.Fatalf("wanted %d shards, got %d", shards, len(n.shards))
				}
				got := n.Run(sc.horizon)
				normalizeShardTrace(got)
				if !reflect.DeepEqual(got, serial) {
					t.Errorf("%d-shard trace differs from serial", shards)
				}
			}
		})
	}
}

// TestLockstepMatchesGoroutines pins the barrier machinery itself: the
// same sharded network run with worker goroutines and run inline in shard
// order must agree, so nothing about the result depends on goroutine
// scheduling.
func TestLockstepMatchesGoroutines(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			par := sc.build(t, 4, nil)
			concurrent := par.Run(sc.horizon)
			normalizeShardTrace(concurrent)

			ref := sc.build(t, 4, func(n *Network) { n.lockstep = true })
			inline := ref.Run(sc.horizon)
			normalizeShardTrace(inline)
			if !reflect.DeepEqual(concurrent, inline) {
				t.Error("goroutine and lockstep executions differ")
			}
		})
	}
}

// TestShardedWheelMatchesHeapOracle holds a two-shard run, its wheels
// driven by the windowed parallel runner, to the serial heap oracle: one
// binary heap over the whole network's events must produce the same trace.
func TestShardedWheelMatchesHeapOracle(t *testing.T) {
	for _, sc := range shardScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			got := sc.build(t, 2, nil).Run(sc.horizon)
			normalizeShardTrace(got)
			want := sc.build(t, 1, pinHeapOracle).runHeapOracle(t, sc.horizon)
			normalizeShardTrace(want)
			if !reflect.DeepEqual(got, want) {
				t.Error("sharded wheel and serial heap oracle traces differ")
			}
		})
	}
}

// TestPartitionNodes pins the partitioner's invariants: total assignment,
// contiguous host blocks, and pod-aligned switch adoption on the fat-tree.
func TestPartitionNodes(t *testing.T) {
	topo, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 3, 4, 8} {
		out := partitionNodes(topo, n)
		if len(out) != topo.Nodes() {
			t.Fatalf("n=%d: partition covers %d of %d nodes", n, len(out), topo.Nodes())
		}
		for v, s := range out {
			if s < 0 || int(s) >= n {
				t.Fatalf("n=%d: node %d assigned to shard %d", n, v, s)
			}
		}
		// Hosts must form nondecreasing contiguous blocks.
		for h := 1; h < topo.Hosts; h++ {
			if out[h] < out[h-1] {
				t.Fatalf("n=%d: host blocks not contiguous: host %d on %d after %d", n, h, out[h], out[h-1])
			}
		}
		again := partitionNodes(topo, n)
		if !reflect.DeepEqual(out, again) {
			t.Fatalf("n=%d: partition is not deterministic", n)
		}
	}
	// k=4, 4 shards: each pod (4 hosts + 2 edges + 2 aggs) lands on one
	// shard; the 4 cores spread across shards.
	out := partitionNodes(topo, 4)
	for pod := 0; pod < 4; pod++ {
		want := out[pod*4]
		for i := 0; i < 4; i++ {
			if out[pod*4+i] != want {
				t.Errorf("pod %d host %d on shard %d, want %d", pod, i, out[pod*4+i], want)
			}
		}
		for i := 0; i < 2; i++ {
			if edge := out[16+pod*2+i]; edge != want {
				t.Errorf("pod %d edge %d on shard %d, want %d", pod, i, edge, want)
			}
			if agg := out[16+8+pod*2+i]; agg != want {
				t.Errorf("pod %d agg %d on shard %d, want %d", pod, i, agg, want)
			}
		}
	}
	cores := map[int32]int{}
	for c := 0; c < 4; c++ {
		cores[out[16+8+8+c]]++
	}
	if len(cores) != 4 {
		t.Errorf("cores not spread: %v", cores)
	}
}

// TestShardsCappedAtNodes guards the config clamp: asking for more shards
// than nodes must not crash or change results.
func TestShardsCappedAtNodes(t *testing.T) {
	topo, err := Dumbbell(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(topo)
	cfg.Shards = 64
	n, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(n.shards) != topo.Nodes() {
		t.Fatalf("shards = %d, want clamp to %d nodes", len(n.shards), topo.Nodes())
	}
	n.AddFlow(FlowSpec{Src: 0, Dst: 2, Bytes: 100_000})
	n.Record()
	got := n.Run(1_000_000)
	normalizeShardTrace(got)

	cfg2 := DefaultConfig(topo)
	n2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	n2.AddFlow(FlowSpec{Src: 0, Dst: 2, Bytes: 100_000})
	n2.Record()
	want := n2.Run(1_000_000)
	normalizeShardTrace(want)
	if !reflect.DeepEqual(got, want) {
		t.Error("max-sharded trace differs from serial")
	}
}
