package report

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavesketch"
)

// mustQueryable is NewQueryable of a report it must admit.
func mustQueryable(tb testing.TB, r *HostReport) *Queryable {
	tb.Helper()
	q, err := NewQueryable(r)
	if err != nil {
		tb.Fatal(err)
	}
	return q
}

// mustExtend is s.Extend of a member it must admit.
func mustExtend(tb testing.TB, s *RoutedSet, q *Queryable) *RoutedSet {
	tb.Helper()
	ns, err := s.Extend(q)
	if err != nil {
		tb.Fatal(err)
	}
	return ns
}

// mkBasicQueryable builds a light-only member carrying the given flows in
// windows [w0, w0+32).
func mkBasicQueryable(t testing.TB, cfg wavesketch.Config, host int, w0 int64, flows []flowkey.Key) *Queryable {
	t.Helper()
	s, err := wavesketch.NewBasic(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, f := range flows {
		s.Update(f, w0+int64(i%32), int64(100*(i+1)))
	}
	s.Seal()
	return mustQueryable(t, FromBasic(host, 0, s))
}

// byKey is a RoutedSet asked in the (flow, from, to) form the oracles
// answer in, each call with a plan of its own.
type byKey struct{ s *RoutedSet }

func (b byKey) Route(f flowkey.Key, from, to int64, dst []int) []int {
	fq := NewFlowQuery(f, from, to)
	defer fq.Release()
	return b.s.Route(fq, dst)
}

func (b byKey) MergeFlow(out []float64, f flowkey.Key, from, to int64) int {
	fq := NewFlowQuery(f, from, to)
	defer fq.Release()
	return b.s.MergeFlow(out, fq)
}

// routeOracle is the brute-force routing answer: every member whose
// MightSee is true and whose span meets [from, to), in member order.
func routeOracle(qs []*Queryable, f flowkey.Key, from, to int64) []int {
	var want []int
	for id, q := range qs {
		if lo, hi := q.Span(); from < to && lo < to && hi > from && q.MightSee(f) {
			want = append(want, id)
		}
	}
	return want
}

// orphanReports are reports of one full sketch (3 light rows, so that one
// row and every row differ) in which a heavy flow's light buckets are not
// all there, as no sealed sketch leaves them: the first heavy key's bucket
// dropped from row 0, from every row, and the light part gone altogether
// (no bucket left). Each comes with the heavy flows to probe.
func orphanReports(tb testing.TB) (reports map[string]*slabReport, heavy []flowkey.Key) {
	tb.Helper()
	cfg := wavesketch.DefaultFull()
	cfg.Light.Rows, cfg.Light.K = 3, 8
	full, err := wavesketch.NewFull(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	for w := int64(0); w < 64; w++ {
		for f := 0; f < 6; f++ {
			full.Update(key(3000+f), w, 1500)
		}
		full.Update(key(3100+int(w%9)), w, 60)
	}
	full.Seal()
	whole := slabs(FromFull(70, 0, full))
	if len(whole.Heavy) == 0 {
		tb.Fatal("orphan fixture elected no heavy flow")
	}
	for _, h := range whole.Heavy {
		heavy = append(heavy, h.Key)
	}
	without := func(rows ...int) *slabReport {
		r := *whole
		r.Buckets = nil
		p := heavy[0].Pack()
		for _, b := range whole.Buckets {
			at := flowkey.NewReducer(r.Meta.Width).Index(p.Hash(flowkey.RowSeed(r.Meta.Seed, b.Row)))
			if b.Index != at || !slices.Contains(rows, b.Row) {
				r.Buckets = append(r.Buckets, b)
			}
		}
		if len(r.Buckets) != len(whole.Buckets)-len(rows) {
			tb.Fatalf("dropped %d buckets for rows %v", len(whole.Buckets)-len(r.Buckets), rows)
		}
		return &r
	}
	noLight := *whole
	noLight.Buckets = nil
	return map[string]*slabReport{
		"whole": whole, "one row": without(0), "every row": without(0, 1, 2), "no light part": &noLight,
	}, heavy
}

// TestRoutedSetMatchesMightSee pins the routing invariant: Route returns
// exactly the members whose MightSee(f) is true and whose span meets the
// range, across basic and full reports of the set's one sketch, heavy
// flows, members laid out at different times, and flows the window never
// saw. A report of another sketch is refused and leaves the set as it was.
func TestRoutedSetMatchesMightSee(t *testing.T) {
	cfg := wavesketch.Default(4) // the orphan fixtures' light part: 3×256
	var qs []*Queryable
	for m := 0; m < 12; m++ {
		var flows []flowkey.Key
		for j := 0; j < 8; j++ {
			flows = append(flows, key(m*8+j))
		}
		qs = append(qs, mkBasicQueryable(t, cfg, m, int64(100*m), flows))
	}
	// One full report contributes heavy flows.
	fcfg := wavesketch.DefaultFull()
	fcfg.Light = wavesketch.Default(32)
	full, _ := buildRandomFullOf(t, fcfg, 3)
	fq := mustQueryable(t, FromFull(0, 0, full))
	if len(fq.HeavyFlows()) == 0 {
		t.Fatal("full fixture carries no heavy flows — their routing untested")
	}
	qs = append(qs, fq)
	orphaned, heavy := orphanReports(t)
	qs = append(qs, mustQueryable(t, build(t, orphaned["whole"])))
	// A report without a sample: its span is empty and nothing routes to it.
	empty := mustQueryable(t, build(t, &slabReport{Host: 99, Meta: SketchMeta{Rows: cfg.Rows, Width: cfg.Width, Levels: cfg.Levels, Seed: cfg.Seed}}))
	if lo, hi := empty.Span(); lo <= hi {
		t.Fatalf("empty report span = [%d, %d), want lo > hi", lo, hi)
	}
	qs = append(qs, empty)

	other := wavesketch.Config{Rows: 2, Width: 128, Levels: 8, K: 4, Seed: 0x1234}
	foreign := mkBasicQueryable(t, other, 100, 0, []flowkey.Key{key(0)})
	g := &RoutedSet{}
	for i, q := range qs {
		if i == 5 {
			if ns, err := g.Extend(foreign); err == nil || ns != nil {
				t.Fatalf("Extend of a %d×%d report into a %d×%d set = %v, %v; want a refusal", other.Rows, other.Width, cfg.Rows, cfg.Width, ns, err)
			}
		}
		g = mustExtend(t, g, q)
	}
	if g.Len() != len(qs) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(qs))
	}
	if lo, hi := g.Span(); lo != 0 || hi != 1108 {
		t.Fatalf("hull = [%d, %d), want [0, 1108): the twelfth basic member ends it", lo, hi)
	}

	// All of time, inside one member, straddling two, before, after and
	// covering the hull, one window, empty and reversed.
	ranges := [][2]int64{
		{math.MinInt64, math.MaxInt64}, {300, 320}, {120, 210}, {-50, 0}, {1108, 2000},
		{-5, 1200}, {431, 432}, {40, 40}, {500, 100},
	}
	probe := func(f flowkey.Key) {
		t.Helper()
		for _, r := range ranges {
			want := routeOracle(qs, f, r[0], r[1])
			got := byKey{g}.Route(f, r[0], r[1], nil)
			if len(got) == 0 && len(want) == 0 {
				continue
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Route(%s, %d, %d) = %v, want %v", f, r[0], r[1], got, want)
			}
		}
	}
	// Flows the members carry, heavy flows, and flows nobody saw.
	for i := 0; i < 700; i++ {
		probe(key(i))
	}
	for _, f := range append(fq.HeavyFlows(), heavy...) {
		probe(f)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		probe(flowkey.Key{
			SrcIP: rng.Uint32(), DstIP: rng.Uint32(),
			SrcPort: uint16(rng.Intn(1 << 16)), DstPort: uint16(rng.Intn(1 << 16)),
			Proto: uint8(rng.Intn(256)),
		})
	}
}

// TestSketchReportsHaveNoOrphans pins what lets the index do without heavy
// postings: in a report a sketch produced, every heavy flow's light buckets
// are there, so NewQueryable admits it. The reports built without some of
// them are refused.
func TestSketchReportsHaveNoOrphans(t *testing.T) {
	for _, c := range benchReports {
		for host := 0; host < 8; host++ {
			if _, err := NewQueryable(c.build(t, host)); err != nil {
				t.Errorf("%s, host %d: %v", c.name, host, err)
			}
		}
	}
	orphaned, _ := orphanReports(t)
	for name, r := range orphaned {
		if _, err := NewQueryable(build(t, r)); (err == nil) != (name == "whole") {
			t.Errorf("%s: NewQueryable err = %v", name, err)
		}
	}
}

// TestRoutedSetExtendMatchesCopyingOracle is the differential test of the
// append-only index against the copying one it replaced (run under -race):
// one writer extends a set from 0 to 200 members — basic reports past the
// stride growths at 64 and 128, and full reports whose heavy flows have no
// postings to route them — and has reports of another sketch refused on
// the way, while two readers hold every intermediate successor and check
// that its Route and MergeFlow equal those of the oracle built by CloneAdd
// over the same prefix: as each successor arrives, which is while the
// writer makes the later ones, and again after the last admit.
func TestRoutedSetExtendMatchesCopyingOracle(t *testing.T) {
	const members = 200
	cfg := wavesketch.Config{Rows: 3, Width: 512, Levels: 8, K: 4, Seed: 0x5eed0f}
	fcfg := wavesketch.DefaultFull()
	fcfg.Light = cfg
	fcfg.Light.K = 32
	shared := key(9999)
	qs := make([]*Queryable, members)
	for m := range qs {
		if m%8 == 7 {
			full, _ := buildRandomFullOf(t, fcfg, int64(m))
			qs[m] = mustQueryable(t, FromFull(m, 0, full))
		} else {
			qs[m] = mkBasicQueryable(t, cfg, m, int64(64*(m%5)), []flowkey.Key{key(1000 + 2*m), key(1001 + 2*m), shared})
		}
	}
	foreign := mkBasicQueryable(t, wavesketch.Config{Rows: 3, Width: 512, Levels: 8, K: 4, Seed: 0x1234}, members, 0, []flowkey.Key{shared})
	probes := []flowkey.Key{
		shared, key(1000 + 2*3), key(1001 + 2*70), key(1000 + 2*133), key(1001 + 2*198), // basic members, each stride
		key(0), key(7), key(103), key(505), // the full members' heavy, mice and mid-flow elected flows
		key(424242), // a flow nobody saw
	}
	type answer struct {
		all, part []int
		curve     []float64
		visited   int
	}
	answers := func(route func(f flowkey.Key, from, to int64, dst []int) []int, merge func(out []float64, f flowkey.Key, from, to int64) int) []answer {
		out := make([]answer, len(probes))
		for i, f := range probes {
			a := &out[i]
			a.all = route(f, math.MinInt64, math.MaxInt64, nil)
			a.part = route(f, 100, 164, nil)
			a.curve = make([]float64, 128)
			a.visited = merge(a.curve, f, 64, 192)
		}
		return out
	}
	want := make([][]answer, members)
	wantSpan := make([][2]int64, members)
	oracle := &oracleRoutedSet{}
	for k, q := range qs {
		oracle = oracle.CloneAdd(q)
		want[k] = answers(oracle.Route, oracle.MergeFlow)
		wantSpan[k] = [2]int64{oracle.lo, oracle.hi}
	}
	if n := len(want[members-1][0].all); n < 150 {
		t.Fatalf("the shared flow routes to %d members, want the basic ones: fixture is off", n)
	}
	if len(want[members-1][5].all) != members/8 {
		t.Fatalf("heavy flow routes to %v: fixture is off", want[members-1][5].all)
	}

	check := func(s *RoutedSet, k int, when string) bool {
		if lo, hi := s.Span(); s.Len() != k+1 || [2]int64{lo, hi} != wantSpan[k] {
			t.Errorf("successor %d %s: %d members over [%d, %d), want %d over %v", k, when, s.Len(), lo, hi, k+1, wantSpan[k])
			return false
		}
		for i, got := range answers((byKey{s}).Route, (byKey{s}).MergeFlow) {
			if !reflect.DeepEqual(got, want[k][i]) {
				t.Errorf("successor %d %s, flow %s: differs from the oracle\n got %v\nwant %v", k, when, probes[i], got, want[k][i])
				return false
			}
		}
		return true
	}
	feeds := [2]chan *RoutedSet{make(chan *RoutedSet, members), make(chan *RoutedSet, members)} // one slot a send
	var wg sync.WaitGroup
	for _, feed := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var held []*RoutedSet
			for s := range feed {
				held = append(held, s)
				if !check(s, len(held)-1, "as published") {
					return
				}
			}
			for k, s := range held {
				if !check(s, k, "after the last admit") {
					return
				}
			}
		}()
	}
	cur := &RoutedSet{}
	for m, q := range qs {
		if m%50 == 40 {
			if _, err := cur.Extend(foreign); err == nil {
				t.Errorf("member %d: a report of another seed was admitted", m)
			}
		}
		cur = mustExtend(t, cur, q)
		for _, feed := range feeds {
			feed <- cur
		}
	}
	for _, feed := range feeds {
		close(feed)
	}
	wg.Wait()

	// The extend-once rule: the newest successor extends, an older one
	// must not — its spare capacity is its successor's.
	older := cur
	cur = mustExtend(t, cur, qs[0])
	defer func() {
		if recover() == nil {
			t.Error("a set was extended twice")
		}
	}()
	older.Extend(qs[1])
}

// TestRoutedSetStrideGrowth pushes a set past 64 and 128 members, so the
// transposed bitsets re-lay at a wider stride, and checks routing over time
// ranges for the last set and for sets held from before each growth, which
// keep answering for their own members beside the Extends that followed.
func TestRoutedSetStrideGrowth(t *testing.T) {
	cfg := wavesketch.Config{Rows: 3, Width: 512, Levels: 8, K: 4, Seed: 0x5eed0f}
	var qs []*Queryable
	held := map[int]*RoutedSet{}
	s := &RoutedSet{}
	for m := 0; m < 130; m++ {
		q := mkBasicQueryable(t, cfg, m, int64(16*(m%8)), []flowkey.Key{key(m), key(1000)})
		qs = append(qs, q)
		s = mustExtend(t, s, q)
		if n := m + 1; n == 64 || n == 65 || n == 128 {
			held[n] = s
		}
	}
	held[len(qs)] = s
	for n, s := range held {
		for i := 0; i < 200; i++ {
			f := key(i)
			if i == 199 {
				f = key(1000) // every member carries it
			}
			for _, r := range [][2]int64{{math.MinInt64, math.MaxInt64}, {16, 48}, {100, 140}} {
				want := routeOracle(qs[:n], f, r[0], r[1])
				got := byKey{s}.Route(f, r[0], r[1], nil)
				if len(got) == 0 && len(want) == 0 {
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("set of %d: Route(%s, %d, %d) = %v, want %v", n, f, r[0], r[1], got, want)
				}
			}
		}
	}
}

// TestFlowQueryHashesOncePerSketch pins how often a query hashes its flow:
// once over a 17-epoch window of one sketch, however many epochs route it
// and reports answer it, and once more for each change of sketch along the
// window — twice when the newer epochs carry another seed. On that mixed
// window too, the routed max-merge answers bit for bit what a scan of every
// report answers.
func TestFlowQueryHashesOncePerSketch(t *testing.T) {
	const epochs, hosts = 17, 8
	seedA := wavesketch.Config{Rows: 3, Width: 512, Levels: 8, K: 4, Seed: 0x5eed0f}
	seedB := seedA
	seedB.Seed = 0x1234
	shared := key(5000)
	for _, c := range []struct {
		name     string
		switchAt int // the first epoch of seed B
		hashes   int
	}{{"one seed", epochs, 1}, {"two seeds", 9, 2}} {
		sets := make([]*RoutedSet, epochs)
		for e := range sets {
			cfg := seedA
			if e >= c.switchAt {
				cfg = seedB
			}
			sets[e] = &RoutedSet{}
			for h := 0; h < hosts; h++ {
				flows := []flowkey.Key{shared}
				for j := 0; j < 16; j++ {
					flows = append(flows, key(100*h+j))
				}
				sets[e] = mustExtend(t, sets[e], mkBasicQueryable(t, cfg, h, int64(32*e), flows))
			}
		}
		for _, f := range []flowkey.Key{shared, key(3), key(715), key(424242)} {
			for _, r := range [][2]int64{{0, 32 * epochs}, {20, 300}} {
				fq := NewFlowQuery(f, r[0], r[1])
				got := make([]float64, r[1]-r[0])
				visited := 0
				for _, s := range sets {
					visited += s.MergeFlow(got, fq)
				}
				if fq.hashes != c.hashes {
					t.Errorf("%s: flow %s over [%d, %d) hashed for %d sketches, visiting %d reports; want %d", c.name, f, r[0], r[1], fq.hashes, visited, c.hashes)
				}
				fq.Release()
				if f == shared && r[0] == 0 && visited != epochs*hosts {
					t.Fatalf("%s: the shared flow visited %d reports, want all %d", c.name, visited, epochs*hosts)
				}
				want := make([]float64, r[1]-r[0])
				for _, s := range sets {
					for _, q := range s.Queryables() {
						for i, v := range q.QueryRange(f, r[0], r[1]) {
							want[i] = max(want[i], v)
						}
					}
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s: flow %s window %d: routed %v, scan %v", c.name, f, r[0]+int64(i), got[i], want[i])
					}
				}
			}
		}
	}
}

// TestQueryRangeIntoMatchesQueryRange pins the alloc-free form: identical
// answers to QueryRange (bit-equal floats), appended after dst's existing
// contents, across heavy flows, light flows and mid-flow elections.
func TestQueryRangeIntoMatchesQueryRange(t *testing.T) {
	full, flows := buildRandomFull(t, 6)
	q := mustQueryable(t, FromFull(0, 0, full))
	rng := rand.New(rand.NewSource(99))
	buf := make([]float64, 0, 600)
	for _, f := range flows {
		for i := 0; i < 4; i++ {
			from := int64(rng.Intn(512))
			to := from + int64(rng.Intn(int(513-from)))
			want := q.QueryRange(f, from, to)
			buf = append(buf[:0], -1, -2)
			fq := NewFlowQuery(f, from, to)
			buf = q.QueryRangeInto(buf, fq)
			fq.Release()
			if buf[0] != -1 || buf[1] != -2 {
				t.Fatalf("flow %s: QueryRangeInto clobbered dst prefix", f)
			}
			if !reflect.DeepEqual(append([]float64{}, buf[2:]...), want) {
				t.Fatalf("flow %s [%d,%d): into %v, want %v", f, from, to, buf[2:], want)
			}
		}
	}
	// Inverted and empty ranges behave like QueryRange: nothing appended.
	if got := q.QueryRangeInto(nil, NewFlowQuery(flows[0], 9, 3)); len(got) != 0 {
		t.Errorf("inverted range appended %v", got)
	}
}

// TestQueryRangeIntoNoAllocs pins the merge-loop contract: with decoded
// curves resident and a warm plan pool, a plan and QueryRangeInto into a
// pre-sized buffer perform zero allocations (not under -race, whose
// sync.Pool drops Puts).
func TestQueryRangeIntoNoAllocs(t *testing.T) {
	full, flows := buildRandomFull(t, 9)
	q := mustQueryable(t, FromFull(0, 0, full))
	buf := make([]float64, 0, 128)
	for _, f := range flows {
		buf = queryInto(q, buf[:0], f, 0, 128) // decode curves, warm pool
	}
	heavy, light := flows[0], flows[0]
	for _, f := range flows {
		if q.IsHeavy(f) {
			heavy = f
		} else {
			light = f
		}
	}
	n := testing.AllocsPerRun(200, func() {
		buf = queryInto(q, buf[:0], heavy, 0, 128)
		buf = queryInto(q, buf[:0], light, 0, 128)
	})
	if n != 0 && !raceEnabled {
		t.Errorf("QueryRangeInto allocated %.1f per run, want 0", n)
	}
}

// queryInto is q.QueryRangeInto of a pooled plan for f over [from, to).
func queryInto(q *Queryable, dst []float64, f flowkey.Key, from, to int64) []float64 {
	fq := NewFlowQuery(f, from, to)
	defer fq.Release()
	return q.QueryRangeInto(dst, fq)
}
