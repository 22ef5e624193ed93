package report

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/telemetry"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// rowLoopRange is QueryRange without the span pass: every row's loop runs
// over the whole range, as a light estimate did before the pass. It is the
// span pass's oracle.
func rowLoopRange(q *Queryable, f flowkey.Key, from, to int64) []float64 {
	to = max(from, to)
	out := make([]float64, to-from)
	fq := NewFlowQuery(f, from, to)
	defer fq.Release()
	idx := fq.rows(q)
	h, ok := q.heavy[f]
	if !ok {
		rowLoop(q, out, idx, -1, from, to)
		return out
	}
	w0, curve := q.lookup(h, from, to)
	if curve != nil {
		sliceInto(out, w0, curve, from, to)
	}
	if cut := min(w0, to); w0 > from {
		rowLoop(q, out[:cut-from], idx, h, from, cut)
	}
	return out
}

// rowLoop is the light estimate's per-row loop over all of [from, to).
func rowLoop(q *Queryable, out []float64, idx []int, self int32, from, to int64) {
	row := make([]float64, len(out))
	for r, i := range idx {
		b := q.bucket(r, i)
		if b < 0 {
			clear(out)
			return
		}
		if w0, curve := q.lookup(b, from, to); curve != nil {
			sliceInto(row, w0, curve, from, to)
		} else {
			clear(row)
		}
		if q.colAt != nil {
			for _, h := range q.coloc[q.colAt[b]:q.colAt[b+1]] {
				if h == self {
					continue
				}
				if w0, curve := q.lookup(h, from, to); curve != nil {
					addInto(row, w0, curve, from, to, -1)
				}
			}
		}
		for i, v := range row {
			if v < 0 {
				v = 0
			}
			if r == 0 || v < out[i] {
				out[i] = v
			}
		}
	}
}

// spanReport draws a hand-built report of 2–4 rows whose curves are short
// and scattered over windows [0, 40), so rows' spans often miss each other:
// narrow rows, so flows collide; approximations small beside their details,
// so samples swing negative; now and then a curve of len 0 (the padded
// reconstruction), with no approximation at all among them. With heavy set
// it carries heavy entries for a third of pool, whose buckets are there in
// every row, as in a report a sketch made.
func spanReport(rng *rand.Rand, pool []flowkey.Key, heavy bool) *slabReport {
	r := &slabReport{Meta: SketchMeta{
		Rows:   2 + rng.Intn(3),
		Width:  []int{1, 2, 5, 64}[rng.Intn(4)],
		Levels: 1 + rng.Intn(3),
		Seed:   rng.Uint64(),
	}}
	curve := func() (w0 int64, length int, approx []int64, details []wavelet.DetailRef) {
		approx = make([]int64, rng.Intn(3))
		for i := range approx {
			approx[i] = rng.Int63n(3000)
		}
		n := max(1, len(approx)<<r.Meta.Levels)
		details = make([]wavelet.DetailRef, rng.Intn(4))
		for i := range details {
			details[i] = wavelet.DetailRef{Level: int8(rng.Intn(r.Meta.Levels)), Index: int32(rng.Intn(n)), Val: rng.Int63n(8000) - 4000}
		}
		length = 1 + rng.Intn(min(n, 6))
		if rng.Intn(6) == 0 {
			length = 0
		}
		return int64(rng.Intn(40)), length, approx, details
	}
	var heavies []int
	if heavy {
		heavies = rng.Perm(len(pool))[:len(pool)/3]
	}
	need := map[[2]int]bool{}
	for _, i := range heavies {
		for row := 0; row < r.Meta.Rows; row++ {
			need[[2]int{row, int(pool[i].Hash(flowkey.RowSeed(r.Meta.Seed, row)) % uint64(r.Meta.Width))}] = true
		}
	}
	for row := 0; row < r.Meta.Rows; row++ {
		for idx := 0; idx < r.Meta.Width; idx++ {
			if need[[2]int{row, idx}] || rng.Intn(4) > 0 {
				b := wavesketch.BucketExport{Row: row, Index: idx}
				b.W0, b.Len, b.Approx, b.Details = curve()
				r.Buckets = append(r.Buckets, b)
			}
		}
	}
	for _, i := range heavies {
		h := wavesketch.HeavyExport{Key: pool[i]}
		h.W0, h.Len, h.Approx, h.Details = curve()
		r.Heavy = append(r.Heavy, h)
	}
	return r
}

// curveReads is how many curve lookups q's stats have counted: the curves
// whose samples a query read, resident or decoded.
func curveReads(reg *telemetry.Registry) int64 {
	return reg.Value("umon_decode_cold_total") + reg.Value("umon_decode_cache_hits_total")
}

// TestLightSpanPassMatchesRowLoop is the exactness property of the span
// pass: over random basic and full reports of 2–4 rows — co-located heavies
// with negative samples, flows whose own heavy entry is co-located with
// them (self), curves of len 0 — and ranges that straddle the curves'
// spans, QueryRange answers bit for bit what the per-row loop over the
// whole range answers on a second Queryable of the same report, and reads
// no more curves; on some queries it reads fewer.
func TestLightSpanPassMatchesRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	pool := make([]flowkey.Key, 18)
	for i := range pool {
		pool[i] = key(i)
	}
	var queries, pruned, selfFallbacks, negative, padded int
	for trial := 0; trial < 400; trial++ {
		rep := spanReport(rng, pool, trial%2 == 1)
		for _, b := range rep.Buckets {
			if b.Len == 0 {
				padded++
			}
		}
		dec := build(t, rep)
		regQ, regO := telemetry.NewRegistry(), telemetry.NewRegistry()
		q, oracle := mustQueryable(t, dec), mustQueryable(t, dec)
		q.SetStats(NewQueryStats(regQ))
		oracle.SetStats(NewQueryStats(regO))
		for _, f := range pool {
			if h, ok := oracle.heavy[f]; ok {
				w0, curve := oracle.lookup(h, math.MinInt64/2, math.MaxInt64/2)
				if slices.ContainsFunc(curve, func(v float64) bool { return v < 0 }) {
					negative++
				}
				if w0 > 0 {
					selfFallbacks++
				}
			}
			for range 4 {
				from := int64(rng.Intn(48)) - 8
				to := from + int64(rng.Intn(40))
				if rng.Intn(8) == 0 {
					to = from - 1 // reversed: no window
				}
				readsQ, readsO := curveReads(regQ), curveReads(regO)
				got, want := q.QueryRange(f, from, to), rowLoopRange(oracle, f, from, to)
				if len(got) != len(want) {
					t.Fatalf("trial %d flow %s [%d, %d): %d windows, oracle %d", trial, f, from, to, len(got), len(want))
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("trial %d (%d×%d, %d buckets, %d heavy) flow %s [%d, %d) window %d: %v, per-row loop %v",
							trial, rep.Meta.Rows, rep.Meta.Width, len(rep.Buckets), len(rep.Heavy), f, from, to, from+int64(i), got[i], want[i])
					}
				}
				dq, do := curveReads(regQ)-readsQ, curveReads(regO)-readsO
				if dq > do {
					t.Fatalf("trial %d flow %s [%d, %d): %d curves read, the per-row loop reads %d", trial, f, from, to, dq, do)
				}
				queries++
				if dq < do {
					pruned++
				}
			}
		}
	}
	t.Logf("%d queries, %d read fewer curves; %d heavy entries swing negative, %d elected mid-curve; %d padded buckets",
		queries, pruned, negative, selfFallbacks, padded)
	if pruned < queries/10 || negative == 0 || selfFallbacks == 0 || padded == 0 {
		t.Fatalf("degenerate draw: %d of %d queries pruned, %d negative heavies, %d mid-curve heavies, %d padded buckets",
			pruned, queries, negative, selfFallbacks, padded)
	}
}

// TestLightSpanPassConcurrentDecodes races the span pass against cold
// decodes (run under -race): on a fresh 3-row full-sketch Queryable, eight
// goroutines read curve spans from cache entries while others' decodes
// install and, at budgets of one and four curves, evict them. Every answer
// equals the serial one.
func TestLightSpanPassConcurrentDecodes(t *testing.T) {
	cfg := wavesketch.DefaultFull()
	cfg.Light.Rows, cfg.Light.Width, cfg.Light.K = 3, 16, 8
	full, flows := buildRandomFullOf(t, cfg, 29)
	dec, err := DecodeBytes(FromFull(0, 0, full).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int64{{0, 512}, {100, 300}, {250, 262}}
	baseline := make([][][]float64, len(flows))
	serial := mustQueryable(t, dec)
	for i, f := range flows {
		for _, r := range ranges {
			baseline[i] = append(baseline[i], rowLoopRange(serial, f, r[0], r[1]))
		}
	}
	for _, budget := range []int{1, 4, 0} {
		q := mustQueryable(t, dec)
		q.SetDecodeBudget(budget)
		const goroutines = 8
		var wg sync.WaitGroup
		wg.Add(goroutines)
		for g := 0; g < goroutines; g++ {
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(g) * 37))
				for iter := 0; iter < 2*len(flows); iter++ {
					fi, ri := rng.Intn(len(flows)), rng.Intn(len(ranges))
					got := q.QueryRange(flows[fi], ranges[ri][0], ranges[ri][1])
					if !slices.Equal(got, baseline[fi][ri]) {
						t.Errorf("budget %d, goroutine %d: flow %d over %v: %v, serially %v", budget, g, fi, ranges[ri], got, baseline[fi][ri])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
