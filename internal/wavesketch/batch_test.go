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
