package wavesketch

import (
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
)

// traceFor builds a deterministic bursty trace: nflows flows, n samples,
// window ids drifting forward with occasional stale repeats — the shape
// the ingest path sees from an egress stream.
func traceFor(n, nflows int, seed uint64) []measure.Sample {
	s := seed*0x9e3779b97f4a7c15 + 1
	next := func() uint64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return s
	}
	out := make([]measure.Sample, n)
	w := int64(100)
	for i := range out {
		r := next()
		if r%7 == 0 {
			w += int64(r % 5)
		}
		fl := r % uint64(nflows)
		out[i] = measure.Sample{
			Key:    flowkey.Key{SrcIP: uint32(fl) + 1, DstIP: 0x0a000002, SrcPort: uint16(fl), DstPort: 80, Proto: 6},
			Window: w,
			Bytes:  int64(64 + r%1400),
		}
	}
	return out
}

func distinctFlows(trace []measure.Sample) []flowkey.Key {
	seen := map[flowkey.Key]bool{}
	var out []flowkey.Key
	for i := range trace {
		if !seen[trace[i].Key] {
			seen[trace[i].Key] = true
			out = append(out, trace[i].Key)
		}
	}
	return out
}

func windowSpan(trace []measure.Sample) (from, to int64) {
	from, to = trace[0].Window, trace[0].Window
	for i := range trace {
		if trace[i].Window < from {
			from = trace[i].Window
		}
		if trace[i].Window > to {
			to = trace[i].Window
		}
	}
	return from, to + 1
}

func requireEqualEstimates(t *testing.T, want, got measure.SeriesEstimator, flows []flowkey.Key, from, to int64, label string) {
	t.Helper()
	for _, f := range flows {
		a := want.QueryRange(f, from, to)
		b := got.QueryRange(f, from, to)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: flow %v window %d: want %v got %v", label, f, from+int64(i), a[i], b[i])
			}
		}
	}
}

// TestBasicUpdateBatchMatchesUpdate: the batched path must be equivalent
// to per-packet updates in slice order.
func TestBasicUpdateBatchMatchesUpdate(t *testing.T) {
	trace := traceFor(20000, 300, 7)
	flows := distinctFlows(trace)
	from, to := windowSpan(trace)
	cfg := Default(32)
	seq, err := NewBasic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewBasic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		seq.Update(trace[i].Key, trace[i].Window, trace[i].Bytes)
	}
	bat.UpdateBatch(trace)
	if seq.Updates() != bat.Updates() {
		t.Fatalf("updates %d != %d", seq.Updates(), bat.Updates())
	}
	seq.Seal()
	bat.Seal()
	requireEqualEstimates(t, seq, bat, flows, from, to, "basic batch")
}

// TestFullUpdateBatchMatchesUpdate: same equivalence for the full version.
func TestFullUpdateBatchMatchesUpdate(t *testing.T) {
	trace := traceFor(20000, 300, 11)
	flows := distinctFlows(trace)
	from, to := windowSpan(trace)
	cfg := DefaultFull()
	seq, err := NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bat, err := NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range trace {
		seq.Update(trace[i].Key, trace[i].Window, trace[i].Bytes)
	}
	bat.UpdateBatch(trace)
	seq.Seal()
	bat.Seal()
	requireEqualEstimates(t, seq, bat, flows, from, to, "full batch")
}

// TestShardedOneProducerMatchesInline: with a single producer every shard
// drains one FIFO ring, so the concurrent run is deterministic and must
// produce estimates identical to the inline (Producers=0) mode — exact
// equality, collisions included.
func TestShardedOneProducerMatchesInline(t *testing.T) {
	trace := traceFor(30000, 500, 13)
	flows := distinctFlows(trace)
	from, to := windowSpan(trace)

	inlineCfg := DefaultSharded(4, Default(32))
	inline, err := NewSharded(inlineCfg)
	if err != nil {
		t.Fatal(err)
	}
	concCfg := DefaultSharded(4, Default(32))
	concCfg.Producers = 1
	concCfg.RingSize = 64 // small ring: force back-pressure paths
	concCfg.Batch = 32
	conc, err := NewSharded(concCfg)
	if err != nil {
		t.Fatal(err)
	}

	inline.UpdateBatch(trace)
	p := conc.Producer(0)
	p.UpdateBatch(trace)
	p.Close()

	inline.Seal()
	conc.Seal()

	if inline.Updates() != int64(len(trace)) || conc.Updates() != int64(len(trace)) {
		t.Fatalf("updates: inline %d conc %d want %d", inline.Updates(), conc.Updates(), len(trace))
	}
	requireEqualEstimates(t, inline, conc, flows, from, to, "sharded 1-producer")
}

// TestShardedMultiProducerConserves: with several producers the per-shard
// interleaving is nondeterministic, so we assert what must still hold:
// every sample is ingested exactly once, and flows that share no light
// bucket with any other flow in their shard estimate identically to the
// inline run (colliding flows may fold windows in a different order).
// Under `go test -race` this is also the concurrent-ingest race test.
func TestShardedMultiProducerConserves(t *testing.T) {
	trace := traceFor(30000, 200, 17)
	flows := distinctFlows(trace)
	from, to := windowSpan(trace)

	base := Default(32)
	base.Width = 1024 // wide rows so most flows are collision-free

	inline, err := NewSharded(DefaultSharded(4, base))
	if err != nil {
		t.Fatal(err)
	}
	concCfg := DefaultSharded(4, base)
	concCfg.Producers = 3
	concCfg.RingSize = 128
	conc, err := NewSharded(concCfg)
	if err != nil {
		t.Fatal(err)
	}

	inline.UpdateBatch(trace)

	// Partition samples by flow across producers so each flow's updates
	// stay FIFO within one producer.
	done := make(chan struct{}, concCfg.Producers)
	for pi := 0; pi < concCfg.Producers; pi++ {
		go func(pi int) {
			p := conc.Producer(pi)
			for i := range trace {
				if int(trace[i].Key.SrcIP)%concCfg.Producers == pi {
					p.Update(trace[i].Key, trace[i].Window, trace[i].Bytes)
				}
			}
			p.Close()
			done <- struct{}{}
		}(pi)
	}
	for i := 0; i < concCfg.Producers; i++ {
		<-done
	}
	inline.Seal()
	conc.Seal()

	if conc.Updates() != int64(len(trace)) {
		t.Fatalf("conservation: ingested %d of %d samples", conc.Updates(), len(trace))
	}

	// Find flows that collide with no other flow in any row of their shard.
	type slot struct{ shard, idx int }
	occupancy := map[slot][]flowkey.Key{}
	for _, f := range flows {
		sh := conc.shardOf(f)
		sk := conc.Shard(sh).(*Basic)
		for r := 0; r < sk.cfg.Rows; r++ {
			s := slot{sh, sk.bucketIndex(f, r)}
			occupancy[s] = append(occupancy[s], f)
		}
	}
	collides := map[flowkey.Key]bool{}
	for _, ks := range occupancy {
		if len(ks) > 1 {
			for _, k := range ks {
				collides[k] = true
			}
		}
	}
	var clean []flowkey.Key
	for _, f := range flows {
		if !collides[f] {
			clean = append(clean, f)
		}
	}
	if len(clean) < len(flows)/2 {
		t.Fatalf("too few collision-free flows to be meaningful: %d of %d", len(clean), len(flows))
	}
	requireEqualEstimates(t, inline, conc, clean, from, to, "sharded multi-producer")
}

// TestShardedSealIdempotent: double Seal and post-Seal queries are safe.
func TestShardedSealIdempotent(t *testing.T) {
	cfg := DefaultSharded(2, Default(16))
	cfg.Producers = 2
	g, err := NewSharded(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := flowkey.Key{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	g.Producer(0).Update(k, 10, 100)
	g.Producer(1).Update(flowkey.Key{SrcIP: 9, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}, 10, 50)
	g.Seal()
	g.Seal()
	if got := g.Updates(); got != 2 {
		t.Fatalf("updates = %d, want 2", got)
	}
	est := g.QueryRange(k, 10, 11)
	if est[0] != 100 {
		t.Fatalf("estimate = %v, want 100", est[0])
	}
	if g.MemoryBytes() <= 0 || g.Name() == "" {
		t.Fatal("accessors broke")
	}
}
