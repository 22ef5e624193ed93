package report

import (
	"bytes"
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

// buildRandomFull replays a randomized mixed workload — steady heavies,
// mice, and late-starting bursts that win their heavy slot mid-trace — and
// returns the sealed sketch with the flows it saw.
func buildRandomFull(t testing.TB, seed int64) (*wavesketch.Full, []flowkey.Key) {
	cfg := wavesketch.DefaultFull()
	cfg.Light.K = 32
	return buildRandomFullOf(t, cfg, seed)
}

// buildRandomFullOf is buildRandomFull's mix in a sketch of config cfg.
func buildRandomFullOf(t testing.TB, cfg wavesketch.FullConfig, seed int64) (*wavesketch.Full, []flowkey.Key) {
	t.Helper()
	full, err := wavesketch.NewFull(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	var flows []flowkey.Key
	type spec struct {
		k          flowkey.Key
		start, end int64
		size       int64
		every      int64
	}
	var specs []spec
	for i := 0; i < 12; i++ { // heavy from the start
		specs = append(specs, spec{key(i), 0, 512, 1500, 1})
	}
	for i := 0; i < 24; i++ { // mice
		specs = append(specs, spec{key(100 + i), int64(rng.Intn(128)), 512, 80, int64(2 + rng.Intn(6))})
	}
	for i := 0; i < 8; i++ { // mid-flow election: heavy rate, late start
		specs = append(specs, spec{key(500 + i), int64(128 + rng.Intn(128)), 512, 3000, 1})
	}
	for _, s := range specs {
		flows = append(flows, s.k)
	}
	for w := int64(0); w < 512; w++ {
		for _, s := range specs {
			if w >= s.start && w < s.end && (w-s.start)%s.every == 0 {
				full.Update(s.k, w, s.size)
			}
		}
	}
	full.Seal()
	return full, flows
}

// TestQueryableMatchesFullSketchProperty is the decode-fidelity property
// test: for randomized workloads and query ranges, the decoded Queryable
// must answer bit for bit what the map-indexed oracle answers over the
// sealed wavesketch.Full's own exports — across heavy flows, light flows,
// and mid-flow elections (heavy entries whose curve starts after the query
// range, exercising the light fallback).
func TestQueryableMatchesFullSketchProperty(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		full, flows := buildRandomFull(t, seed)
		live := newOracleQueryable(sealedSlab(0, full.Light(), full.ExportHeavy(nil)))
		rep := FromFull(0, 0, full)
		var buf bytes.Buffer
		if _, err := rep.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := Decode(&buf)
		if err != nil {
			t.Fatal(err)
		}
		q := mustQueryable(t, dec)

		var heavy, light, midFlow int
		rng := rand.New(rand.NewSource(seed * 7919))
		for _, f := range flows {
			if q.IsHeavy(f) {
				heavy++
			} else {
				light++
			}
			// The full range plus random sub-ranges (including ones
			// starting before any traffic).
			ranges := [][2]int64{{0, 512}}
			for i := 0; i < 4; i++ {
				from := int64(rng.Intn(512))
				to := from + int64(rng.Intn(int(513-from)))
				ranges = append(ranges, [2]int64{from, to})
			}
			for _, r := range ranges {
				want := live.QueryRange(f, r[0], r[1])
				remote := q.QueryRange(f, r[0], r[1])
				if len(want) != len(remote) {
					t.Fatalf("seed %d flow %s [%d,%d): len %d vs %d", seed, f, r[0], r[1], len(want), len(remote))
				}
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(remote[i]) {
						t.Fatalf("seed %d flow %s [%d,%d) win %d: sketch %v vs decoded %v",
							seed, f, r[0], r[1], i, want[i], remote[i])
					}
				}
			}
		}
		// The workload must actually exercise the mid-flow election
		// fallback: a heavy entry whose curve starts after window 0.
		for _, f := range flows {
			if h, ok := q.heavy[f]; ok {
				if w0, _ := q.lookup(h, 0, 0); w0 > 0 {
					midFlow++
				}
			}
		}
		if heavy == 0 || light == 0 || midFlow == 0 {
			t.Fatalf("seed %d degenerate workload: heavy=%d light=%d midFlow=%d", seed, heavy, light, midFlow)
		}
	}
}

// TestQueryableConcurrentQueries hammers one Queryable from many
// goroutines (run under -race): decoded curves are shared through the
// lock-free cache, and every answer must equal the sequential baseline.
func TestQueryableConcurrentQueries(t *testing.T) {
	full, flows := buildRandomFull(t, 42)
	rep := FromFull(0, 0, full)
	var buf bytes.Buffer
	if _, err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential baseline from a separately-indexed copy.
	baseline := make([][]float64, len(flows))
	qSeq := mustQueryable(t, dec)
	for i, f := range flows {
		baseline[i] = qSeq.QueryRange(f, 0, 512)
	}

	q := mustQueryable(t, dec)
	const goroutines = 16
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for iter := 0; iter < 50; iter++ {
				fi := rng.Intn(len(flows))
				got := q.QueryRange(flows[fi], 0, 512)
				for i := range got {
					if got[i] != baseline[fi][i] {
						t.Errorf("goroutine %d: flow %d win %d: %v vs baseline %v",
							g, fi, i, got[i], baseline[fi][i])
						return
					}
				}
				q.MightSee(flows[fi])
			}
		}(g)
	}
	wg.Wait()
}

// residentScan counts q's resident curves the slow way, over every cache.
func residentScan(q *Queryable) int {
	caches := q.caches.Load()
	if caches == nil {
		return 0
	}
	n := 0
	for i := range *caches {
		if (*caches)[i].curve.Load() != nil {
			n++
		}
	}
	return n
}

// TestDecodeBudgetEvictionCorrectness pins the bounded decode cache: with
// a budget far below the report's curve count, queries keep matching the
// oracle over the sealed wavesketch.Full's exports bit for bit — an evicted
// curve re-decodes to identical values — and the clock sweep both evicts
// (evictions counter moves) and keeps residency at the budget, whether the
// budget is set before the first query or after unbounded ones.
func TestDecodeBudgetEvictionCorrectness(t *testing.T) {
	full, flows := buildRandomFull(t, 9)
	live := newOracleQueryable(sealedSlab(0, full.Light(), full.ExportHeavy(nil)))
	rep := FromFull(0, 0, full)
	var buf bytes.Buffer
	if _, err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec.curves) < 8 {
		t.Fatalf("degenerate report: only %d curves", len(dec.curves))
	}
	const budget = 4
	for _, late := range []bool{false, true} {
		q := mustQueryable(t, dec)
		reg := telemetry.NewRegistry()
		q.SetStats(NewQueryStats(reg))
		if late { // half the flows decode unbounded, the rest must evict them
			for _, f := range flows[:len(flows)/2] {
				q.QueryRange(f, 0, 512)
			}
			if got, scan := q.ResidentCurves(), residentScan(q); got != scan || got <= budget {
				t.Fatalf("unbounded: %d resident curves counted, %d in the caches, want the same and more than %d", got, scan, budget)
			}
		}
		q.SetDecodeBudget(budget)

		// Two full passes: the second pass re-touches curves the first pass
		// evicted, so correctness covers decode-after-evict.
		for pass := 0; pass < 2; pass++ {
			for _, f := range flows {
				want := live.QueryRange(f, 0, 512)
				got := q.QueryRange(f, 0, 512)
				for i := range want {
					if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
						t.Fatalf("late %v pass %d flow %s win %d: sketch %v vs budgeted %v", late, pass, f, i, want[i], got[i])
					}
				}
			}
		}
		if q.stats.DecodeEvictions.Value() == 0 {
			t.Errorf("late %v: budget far below curve count but no evictions happened", late)
		}
		if got := q.ResidentCurves(); got > budget {
			t.Errorf("late %v: resident curves = %d, budget = %d", late, got, budget)
		}
		if got, scan := q.ResidentCurves(), residentScan(q); got != scan {
			t.Errorf("late %v: resident count %d disagrees with the %d resident caches", late, got, scan)
		}
	}
}

// TestDecodeBudgetConcurrent races the cold parse (run under -race): eight
// goroutines issue their first queries together on one fresh payload-backed
// Queryable — the same flows in the same order, so they parse the same
// curves at once — then random ones, at decode budgets of one curve (every
// parse evicts), four and none. Evictions and re-parses must never corrupt
// an answer: each equals the serial one.
func TestDecodeBudgetConcurrent(t *testing.T) {
	full, flows := buildRandomFull(t, 13)
	rep := FromFull(0, 0, full)
	var buf bytes.Buffer
	if _, err := rep.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ranges := [][2]int64{{0, 512}, {100, 300}}
	baseline := make([][][]float64, len(flows))
	qSeq := mustQueryable(t, dec)
	for i, f := range flows {
		for _, r := range ranges {
			baseline[i] = append(baseline[i], qSeq.QueryRange(f, r[0], r[1]))
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
				rng := rand.New(rand.NewSource(int64(g) * 101))
				for iter := 0; iter < len(flows)+40; iter++ {
					fi := iter
					if iter >= len(flows) {
						fi = rng.Intn(len(flows))
					}
					ri := (iter + g) % len(ranges)
					got := q.QueryRange(flows[fi], ranges[ri][0], ranges[ri][1])
					if !slices.Equal(got, baseline[fi][ri]) {
						t.Errorf("budget %d, goroutine %d: flow %d over %v: %v, serially %v", budget, g, fi, ranges[ri], got, baseline[fi][ri])
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if got, scan := q.ResidentCurves(), residentScan(q); got != scan || budget > 0 && got > budget {
			t.Errorf("budget %d: %d resident curves counted, %d in the caches", budget, got, scan)
		}
	}
}

// TestQueryableCachesMadeOnFirstDecode pins when a report pays for its
// curve caches: not at NewQueryable, not for routing (Route, MightSee) or
// Span, not for a query whose range misses every curve — only
// on the first cold decode. Eight racing first queries make them exactly
// once: every curve any of them decoded stays resident in the one slice
// that won (run under -race).
func TestQueryableCachesMadeOnFirstDecode(t *testing.T) {
	full, flows := buildRandomFull(t, 5)
	dec, err := DecodeBytes(FromFull(0, 0, full).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	q := mustQueryable(t, dec)
	g := mustExtend(t, &RoutedSet{}, q)
	lo, hi := q.Span()
	for _, f := range flows {
		byKey{g}.Route(f, lo, hi, nil)
		q.MightSee(f)
		q.QueryRange(f, hi, hi+64) // after every curve
		q.QueryRange(f, lo-64, lo) // before every curve
	}
	if q.caches.Load() != nil || q.ResidentCurves() != 0 {
		t.Fatalf("caches made before any curve was decoded (%d resident)", q.ResidentCurves())
	}

	// The serial reference: which curves these queries decode.
	want := mustQueryable(t, dec)
	for _, f := range flows {
		want.QueryRange(f, lo, hi)
	}
	for _, budget := range []int{0, len(dec.curves)} {
		q := mustQueryable(t, dec)
		q.SetDecodeBudget(budget)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for range 8 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for _, f := range flows {
					q.QueryRange(f, lo, hi)
				}
			}()
		}
		close(start)
		wg.Wait()
		if got, scan := q.ResidentCurves(), residentScan(q); got != want.ResidentCurves() || scan != got {
			t.Errorf("budget %d: %d curves counted resident, %d in the caches, want %d", budget, got, scan, want.ResidentCurves())
		}
	}
}

// TestResidentCurveReadsNoPayload pins that a resident curve answers from
// its cache entry: once the queries below have made every curve they reach
// resident, each resident curve's three header varints are overwritten in
// the report's payload (a value changed, its length kept), and the same
// queries still answer bit for bit as before. A lookup that read a header
// would see another w0, length or |A|.
func TestResidentCurveReadsNoPayload(t *testing.T) {
	full, flows := buildRandomFull(t, 7)
	dec, err := DecodeBytes(FromFull(0, 0, full).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	q := mustQueryable(t, dec)
	lo, hi := q.Span()
	ranges := [][2]int64{{lo, hi}, {lo + (hi-lo)/3, lo + (hi-lo)/2}, {hi - 8, hi + 8}}
	var want [][]float64
	for _, f := range flows {
		for _, r := range ranges {
			want = append(want, q.QueryRange(f, r[0], r[1]))
		}
	}
	caches, overwritten := *q.caches.Load(), 0
	for c := range caches {
		if caches[c].curve.Load() == nil {
			continue
		}
		d := decoder{b: dec.wire, off: int(dec.curves[c])}
		for range 3 {
			dec.wire[d.off] ^= 0x15 // the continuation bit stays
			d.uvarint()
		}
		overwritten++
	}
	if overwritten < len(caches)/2 {
		t.Fatalf("%d of %d curves resident: the queries reach too few", overwritten, len(caches))
	}
	i := 0
	for _, f := range flows {
		for _, r := range ranges {
			got := q.QueryRange(f, r[0], r[1])
			for w := range got {
				if math.Float64bits(got[w]) != math.Float64bits(want[i][w]) {
					t.Fatalf("flow %s [%d, %d) window %d: %v after the headers were overwritten, %v before", f, r[0], r[1], r[0]+int64(w), got[w], want[i][w])
				}
			}
			i++
		}
	}
}

// randomReport draws a hand-built report: any shape (widths that are not
// multiples of 64, rows left empty, a single bucket), lossy curves with
// out-of-range detail references, and heavy entries whose keys come from
// the same small pool the queries use, so heavies collide with light
// buckets and with each other's buckets all the time. As in a report a
// sketch made, every heavy key's bucket is there in every row.
func randomReport(rng *rand.Rand, pool []flowkey.Key) *slabReport {
	r := &slabReport{Meta: SketchMeta{
		Rows:   1 + rng.Intn(4),
		Width:  []int{1, 7, 63, 64, 65, 100, 256}[rng.Intn(7)],
		Levels: 1 + rng.Intn(4),
		Seed:   rng.Uint64(),
	}}
	curve := func() (w0 int64, length int, approx []int64, details []wavelet.DetailRef) {
		approx = make([]int64, 1+rng.Intn(3))
		for i := range approx {
			approx[i] = rng.Int63n(1 << 20)
		}
		n := len(approx) << r.Meta.Levels
		details = make([]wavelet.DetailRef, rng.Intn(6))
		for i := range details {
			details[i] = wavelet.DetailRef{Level: int8(rng.Intn(r.Meta.Levels + 1)), Index: int32(rng.Intn(n)), Val: rng.Int63n(1<<18) - 1<<17}
		}
		length = 1 + rng.Intn(n)
		if rng.Intn(8) == 0 {
			length = 0 // the padded reconstruction, len(approx)<<Levels samples
		}
		return int64(rng.Intn(24)), length, approx, details
	}
	heavy := rng.Perm(len(pool))[:rng.Intn(len(pool)/2)]
	need := map[[2]int]bool{}
	for _, i := range heavy {
		for row := 0; row < r.Meta.Rows; row++ {
			need[[2]int{row, int(pool[i].Hash(flowkey.RowSeed(r.Meta.Seed, row)) % uint64(r.Meta.Width))}] = true
		}
	}
	fill := []float64{0, 0.02, 0.5, 1}[rng.Intn(4)]
	for row := 0; row < r.Meta.Rows; row++ {
		empty := rng.Intn(4) == 0 // but for the heavy keys' buckets
		for idx := 0; idx < r.Meta.Width; idx++ {
			if need[[2]int{row, idx}] || !empty && (rng.Float64() < fill || fill == 0 && len(r.Buckets) == 0) {
				b := wavesketch.BucketExport{Row: row, Index: idx}
				b.W0, b.Len, b.Approx, b.Details = curve()
				r.Buckets = append(r.Buckets, b)
			}
		}
	}
	for _, i := range heavy {
		h := wavesketch.HeavyExport{Key: pool[i]}
		h.W0, h.Len, h.Approx, h.Details = curve()
		r.Heavy = append(r.Heavy, h)
	}
	return r
}

// TestQueryableMatchesMapOracle is the differential property of the rank
// index and of the time pruning: over random basic and full reports,
// QueryRange, MightSee and IsHeavy answer bit for bit what the map-indexed
// Queryable it replaced — which decodes every curve it meets, whatever the
// range — answers over the hand-built report, which build puts through the
// wire, as drawn and with its buckets shuffled, repeated or outside the
// shape, over ranges inside, before, after and covering the curves, empty
// and reversed.
func TestQueryableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pool := make([]flowkey.Key, 24)
	for i := range pool {
		pool[i] = key(i)
	}
	for trial := 0; trial < 300; trial++ {
		rep := randomReport(rng, pool)
		if trial%3 == 2 { // not as Export would emit them
			rng.Shuffle(len(rep.Buckets), func(i, j int) { rep.Buckets[i], rep.Buckets[j] = rep.Buckets[j], rep.Buckets[i] })
			if n := len(rep.Buckets); n > 0 {
				dup := rep.Buckets[rng.Intn(n)]
				dup.W0 += 3
				stray := rep.Buckets[rng.Intn(n)]
				stray.Row, stray.Index = rep.Meta.Rows, rep.Meta.Width
				rep.Buckets = append(rep.Buckets, dup, stray)
			}
			if n := len(rep.Heavy); n > 0 {
				dup := rep.Heavy[rng.Intn(n)]
				dup.W0++
				rep.Heavy = append(rep.Heavy, dup)
			}
		}
		q, oracle := mustQueryable(t, build(t, rep)), newOracleQueryable(rep)
		for _, f := range pool {
			if got, want := q.IsHeavy(f), oracle.IsHeavy(f); got != want {
				t.Fatalf("trial %d flow %s: IsHeavy = %v, oracle %v", trial, f, got, want)
			}
			if got, want := q.MightSee(f), oracle.MightSee(f); got != want {
				t.Fatalf("trial %d flow %s: MightSee = %v, oracle %v", trial, f, got, want)
			}
			from := int64(rng.Intn(16))
			to := from + int64(rng.Intn(48))
			switch rng.Intn(8) {
			case 0: // before every curve
				from, to = from-60, to-60
			case 1: // after every curve (W0 < 24, at most 48 samples)
				from, to = from+72, to+72
			case 2: // covering them all
				from, to = -4, 80
			case 3: // empty
				to = from
			case 4: // reversed
				to = from - 1 - int64(rng.Intn(8))
			}
			got, want := q.QueryRange(f, from, to), oracle.QueryRange(f, from, to)
			if len(got) != len(want) {
				t.Fatalf("trial %d flow %s: %d windows, oracle %d", trial, f, len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (%d×%d, %d buckets, %d heavy) flow %s window %d: %v, oracle %v",
						trial, rep.Meta.Rows, rep.Meta.Width, len(rep.Buckets), len(rep.Heavy), f, from+int64(i), got[i], want[i])
				}
			}
		}
	}
}

// TestQueryablePruningTraps pins, on hand-built one-bucket reports where
// every flow collides, the cases in which "this curve misses the range"
// does not mean "this term is zero": each answers bit for bit what the
// un-pruned oracle answers over every range of a sweep, reports the span
// its curves cover, and decodes only the curves that meet the range.
func TestQueryablePruningTraps(t *testing.T) {
	meta := SketchMeta{Rows: 1, Width: 1, Levels: 3, Seed: 7}
	light, heavy := key(1), key(2)
	// Details big enough that the reconstructed samples change sign.
	swing := []wavelet.DetailRef{{Level: 2, Index: 0, Val: 4000}, {Level: 0, Index: 1, Val: -900}}
	cases := []struct {
		name   string
		rep    *slabReport
		lo, hi int64
		// One query of flow f over [from, to): the curves it must decode,
		// and whether the answer has a non-zero sample.
		f        flowkey.Key
		from, to int64
		cold     int64
		nonZero  bool
	}{
		{
			// Len 0 is the padded reconstruction, len(Approx)<<Levels = 16
			// samples; the range lies past what a Len-based span would cover.
			name: "padded curve",
			rep: &slabReport{Meta: meta, Buckets: []wavesketch.BucketExport{
				{W0: 10, Len: 0, Approx: []int64{800, 1600}},
			}},
			lo: 10, hi: 26, f: light, from: 20, to: 26, cold: 1, nonZero: true,
		},
		{
			// A heavy entry elected mid-flow: windows before its W0 answer
			// from the light part, though its own curve misses the range.
			name: "heavy curve after the range",
			rep: &slabReport{Meta: meta,
				Buckets: []wavesketch.BucketExport{{W0: 4, Len: 8, Approx: []int64{4000}}},
				Heavy:   []wavesketch.HeavyExport{{Key: heavy, W0: 40, Len: 8, Approx: []int64{9000}}},
			},
			lo: 4, hi: 48, f: heavy, from: 6, to: 30, cold: 1, nonZero: true,
		},
		{
			// The bucket misses the range, a co-located heavy meets it with
			// negative samples: zero minus negative is a positive estimate.
			name: "bucket misses, colocated heavy swings negative",
			rep: &slabReport{Meta: meta,
				Buckets: []wavesketch.BucketExport{{W0: 0, Len: 8, Approx: []int64{4000}}},
				Heavy:   []wavesketch.HeavyExport{{Key: heavy, W0: 20, Len: 8, Approx: []int64{100}, Details: swing}},
			},
			lo: 0, hi: 28, f: light, from: 20, to: 28, cold: 1, nonZero: true,
		},
		{
			name: "no sample at all",
			rep:  &slabReport{Meta: meta},
			lo:   math.MaxInt64, hi: math.MinInt64, f: light, from: 0, to: 8,
		},
	}
	for _, tc := range cases {
		reg := telemetry.NewRegistry()
		q, oracle := mustQueryable(t, build(t, tc.rep)), newOracleQueryable(tc.rep)
		q.SetStats(NewQueryStats(reg))
		if lo, hi := q.Span(); lo != tc.lo || hi != tc.hi {
			t.Errorf("%s: span = [%d, %d), want [%d, %d)", tc.name, lo, hi, tc.lo, tc.hi)
		}
		got := q.QueryRange(tc.f, tc.from, tc.to)
		if cold := reg.Value("umon_decode_cold_total"); cold != tc.cold {
			t.Errorf("%s: %d curves decoded for [%d, %d), want %d", tc.name, cold, tc.from, tc.to, tc.cold)
		}
		nonZero := false
		for _, v := range got {
			nonZero = nonZero || v != 0
		}
		if nonZero != tc.nonZero {
			t.Errorf("%s: [%d, %d) = %v, want a non-zero sample: %v", tc.name, tc.from, tc.to, got, tc.nonZero)
		}
		for _, f := range []flowkey.Key{light, heavy} {
			for from := int64(-4); from < 56; from++ {
				for to := from; to < 56; to++ {
					got, want := q.QueryRange(f, from, to), oracle.QueryRange(f, from, to)
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s: flow %s [%d, %d) window %d: %v, oracle %v", tc.name, f, from, to, from+int64(i), got[i], want[i])
						}
					}
				}
			}
		}
	}
}
