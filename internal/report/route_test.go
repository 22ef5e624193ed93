package report

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavesketch"
)

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
	return NewQueryable(FromBasic(host, 0, s))
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

// TestRouteGroupsMatchesMightSee pins the routing invariant: Route returns
// exactly the members whose MightSee(f) is true and whose span meets the
// range, across mixed geometries, heavy postings, members laid out at
// different times, and flows the window never saw.
func TestRouteGroupsMatchesMightSee(t *testing.T) {
	cfgA := wavesketch.Config{Rows: 3, Width: 64, Levels: 8, K: 4, Seed: 0x5eed0f}
	cfgB := wavesketch.Config{Rows: 2, Width: 128, Levels: 8, K: 4, Seed: 0x1234}
	var qs []*Queryable
	for m := 0; m < 12; m++ {
		var flows []flowkey.Key
		for j := 0; j < 8; j++ {
			flows = append(flows, key(m*8+j))
		}
		qs = append(qs, mkBasicQueryable(t, cfgA, m, int64(100*m), flows))
	}
	for m := 0; m < 5; m++ {
		var flows []flowkey.Key
		for j := 0; j < 6; j++ {
			flows = append(flows, key(200+m*6+j))
		}
		qs = append(qs, mkBasicQueryable(t, cfgB, 100+m, int64(50*m), flows))
	}
	// One full report contributes heavy postings (and a third geometry).
	full, _ := buildRandomFull(t, 3)
	fq := NewQueryable(FromFull(0, 0, full))
	if len(fq.HeavyFlows()) == 0 {
		t.Fatal("full fixture carries no heavy flows — postings untested")
	}
	qs = append(qs, fq)
	// A report without a sample: its span is empty and nothing routes to it.
	empty := NewQueryable(&HostReport{Host: 99, Meta: SketchMeta{Rows: 3, Width: 64, Levels: 8, Seed: 0x5eed0f}})
	if lo, hi := empty.Span(); lo <= hi {
		t.Fatalf("empty report span = [%d, %d), want lo > hi", lo, hi)
	}
	qs = append(qs, empty)

	g := &RouteGroups{}
	for _, q := range qs {
		g.Append(q)
	}
	if g.Len() != len(qs) {
		t.Fatalf("Len = %d, want %d", g.Len(), len(qs))
	}
	if lo, hi := g.Span(); lo != 0 || hi != 1108 {
		t.Fatalf("hull = [%d, %d), want [0, 1108): the twelfth cfgA member ends it", lo, hi)
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
			got := g.Route(f, r[0], r[1], nil)
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
	for _, f := range fq.HeavyFlows() {
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

// TestRouteGroupsCloneAddIsolation pins the copy-on-write contract: a
// published index keeps answering its own membership after CloneAdd, and
// the clone (sharing untouched group storage) sees the new member.
func TestRouteGroupsCloneAddIsolation(t *testing.T) {
	cfg := wavesketch.Config{Rows: 3, Width: 64, Levels: 8, K: 4, Seed: 0x5eed0f}
	q0 := mkBasicQueryable(t, cfg, 0, 0, []flowkey.Key{key(0)})
	q1 := mkBasicQueryable(t, cfg, 1, 256, []flowkey.Key{key(1)})
	q2 := mkBasicQueryable(t, cfg, 2, 0, []flowkey.Key{key(2)})

	g0 := &RouteGroups{}
	g0.Append(q0)
	g1 := g0.CloneAdd(q1)
	g2 := g1.CloneAdd(q2)

	if got := g0.Route(key(1), math.MinInt64, math.MaxInt64, nil); len(got) != 0 {
		t.Errorf("old index routed a member it never admitted: %v", got)
	}
	if got := g1.Route(key(1), math.MinInt64, math.MaxInt64, nil); !reflect.DeepEqual(got, []int{1}) {
		t.Errorf("clone lost its own member: %v", got)
	}
	if got := g2.Route(key(2), math.MinInt64, math.MaxInt64, nil); !reflect.DeepEqual(got, []int{2}) {
		t.Errorf("second clone routing = %v", got)
	}
	if got := g1.Route(key(1), 0, 256, nil); len(got) != 0 {
		t.Errorf("clone routed member 1 to windows before its span: %v", got)
	}
	if _, hi := g0.Span(); hi != 1 {
		t.Errorf("old index's hull ends at %d after CloneAdd, want 1", hi)
	}
	if _, hi := g2.Span(); hi != 257 {
		t.Errorf("clone's hull ends at %d, want 257", hi)
	}
	if g0.Len() != 1 || g1.Len() != 2 || g2.Len() != 3 {
		t.Errorf("lens = %d/%d/%d, want 1/2/3", g0.Len(), g1.Len(), g2.Len())
	}
}

// TestRouteGroupsStrideGrowth pushes one group past 64 members so the
// transposed bitsets re-lay at a wider stride, then re-verifies routing.
func TestRouteGroupsStrideGrowth(t *testing.T) {
	cfg := wavesketch.Config{Rows: 3, Width: 512, Levels: 8, K: 4, Seed: 0x5eed0f}
	var qs []*Queryable
	g := &RouteGroups{}
	for m := 0; m < 130; m++ {
		q := mkBasicQueryable(t, cfg, m, 0, []flowkey.Key{key(m)})
		qs = append(qs, q)
		g.Append(q)
	}
	for i := 0; i < 200; i++ {
		f := key(i)
		want := routeOracle(qs, f, math.MinInt64, math.MaxInt64)
		got := g.Route(f, math.MinInt64, math.MaxInt64, nil)
		if len(got) == 0 && len(want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after growth: Route(%s) = %v, want %v", f, got, want)
		}
	}
}

// TestQueryRangeIntoMatchesQueryRange pins the alloc-free form: identical
// answers to QueryRange (bit-equal floats), appended after dst's existing
// contents, across heavy flows, light flows and mid-flow elections.
func TestQueryRangeIntoMatchesQueryRange(t *testing.T) {
	full, flows := buildRandomFull(t, 6)
	q := NewQueryable(FromFull(0, 0, full))
	rng := rand.New(rand.NewSource(99))
	buf := make([]float64, 0, 600)
	for _, f := range flows {
		for i := 0; i < 4; i++ {
			from := int64(rng.Intn(512))
			to := from + int64(rng.Intn(int(513-from)))
			want := q.QueryRange(f, from, to)
			buf = append(buf[:0], -1, -2)
			buf = q.QueryRangeInto(buf, f, from, to)
			if buf[0] != -1 || buf[1] != -2 {
				t.Fatalf("flow %s: QueryRangeInto clobbered dst prefix", f)
			}
			if !reflect.DeepEqual(append([]float64{}, buf[2:]...), want) {
				t.Fatalf("flow %s [%d,%d): into %v, want %v", f, from, to, buf[2:], want)
			}
		}
	}
	// Inverted and empty ranges behave like QueryRange: nothing appended.
	if got := q.QueryRangeInto(nil, flows[0], 9, 3); len(got) != 0 {
		t.Errorf("inverted range appended %v", got)
	}
}

// TestQueryRangeIntoNoAllocs pins the merge-loop contract: with decoded
// curves resident and a warm scratch pool, QueryRangeInto into a
// pre-sized buffer performs zero allocations.
func TestQueryRangeIntoNoAllocs(t *testing.T) {
	full, flows := buildRandomFull(t, 9)
	q := NewQueryable(FromFull(0, 0, full))
	buf := make([]float64, 0, 128)
	for _, f := range flows {
		buf = q.QueryRangeInto(buf[:0], f, 0, 128) // decode curves, warm pool
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
		buf = q.QueryRangeInto(buf[:0], heavy, 0, 128)
		buf = q.QueryRangeInto(buf[:0], light, 0, 128)
	})
	if n != 0 {
		t.Errorf("QueryRangeInto allocated %.1f per run, want 0", n)
	}
}
