package report

// Window-global flow routing: RouteGroups merges the per-report
// non-empty-bucket bitmaps of many Queryables into one index, so a query
// plane holding thousands of reports finds the handful that can answer a
// flow without probing each report. Members are dense ids 0..n-1 in
// admission order; Route returns exactly the members that might see f —
// a heavy entry for f, or a non-empty bucket at f's position in every row
// — and whose curve span meets the queried windows, so consumers that
// max-merge routed reports answer identically to a full scan: every member
// left out estimates identically zero over the range.
//
// Reports are grouped by hash Geometry: within a group the queried flow is
// hashed once per row, and the per-bucket occupancy of all members is held
// transposed (one member-bitset per (row, bucket) position), so the
// AND-across-rows a per-report check would do becomes a handful of word
// ANDs for the whole group. A per-row union bitmap bails out early when no
// member has the flow's bucket occupied.
//
// Heavy flows need no postings of their own: a sketch updates its light
// part for every packet (§4.2), so a heavy key's light buckets are occupied
// in every row and the bitmaps route it. A report for which that does not
// hold — hand-built or hostile, or without a light part — lists the key as
// an orphan (NewQueryable finds them), and the index scans its members'
// orphans linearly; the list is empty for every report a sketch produced.
//
// The index is append-only with published lengths. A RouteGroups value owns
// its slice headers and shares what they point at with the values it was
// copied from: Append writes members, spans and orphans past every older
// length, in spare capacity or a grown copy, and ORs the member's bit into
// the shared bitmap words atomically. Route loads those words atomically
// and masks local member indices at or past its own length, so a value
// copied before an Append answers as it did, for ever, beside the one
// writer. What keeps that true is the extend-once rule: of all the copies
// of an index only the newest may be Appended to (RoutedSet enforces it).

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"umon/internal/flowkey"
)

// orphan routes one heavy flow the bitmaps miss to one member.
type orphan struct {
	key    flowkey.Key
	member int
}

// routeGroup indexes the members sharing one Geometry.
type routeGroup struct {
	geom     Geometry
	width    flowkey.Reducer // hash → bucket index within a row
	rowWords int             // words per row bitmap: (Width+63)/64
	members  []int           // global member ids, ascending (admission order)
	stride   int             // words per member bitset
	// union[r*rowWords+w] ORs every member's row-r occupancy bitmap.
	union []atomic.Uint64
	// bits holds the transposed member sets: for bucket position (r, idx),
	// bits[(r*Width+idx)*stride : +stride] is the bitset of local member
	// indices whose report has that bucket occupied.
	bits []atomic.Uint64
}

// RouteGroups is a flow→member routing index over a window of Queryables.
// The zero value is an empty index.
type RouteGroups struct {
	groups  []routeGroup
	orphans []orphan
	// Time dimension: spans[id] is member id's curve span {lo, hi}, and
	// [lo, hi) the hull of them all (lo >= hi: no member has a sample).
	spans  [][2]int64
	lo, hi int64
}

// Len reports how many members have been added.
func (g *RouteGroups) Len() int { return len(g.spans) }

// Span returns the hull [lo, hi) of the members' curve spans — the windows
// a query can hit; lo >= hi when no member has a sample.
func (g *RouteGroups) Span() (lo, hi int64) { return g.lo, g.hi }

// Append adds q as the next member. Copies of g taken before the call keep
// routing as they did and may do so concurrently with it; g itself may not
// be read until it returns, and no older copy may be Appended to after.
func (g *RouteGroups) Append(q *Queryable) {
	id := len(g.spans)
	lo, hi := q.Span()
	if id == 0 {
		g.lo, g.hi = lo, hi
	}
	g.lo, g.hi = min(g.lo, lo), max(g.hi, hi)
	g.spans = append(g.spans, [2]int64{lo, hi})
	for _, k := range q.orphans {
		g.orphans = append(g.orphans, orphan{key: k, member: id})
	}
	// The group headers are g's own: older copies keep theirs, with the
	// lengths they were published at.
	geom := q.Geometry()
	groups := make([]routeGroup, len(g.groups), len(g.groups)+1)
	copy(groups, g.groups)
	g.groups = groups
	var grp *routeGroup
	for i := range groups {
		if groups[i].geom == geom {
			grp = &groups[i]
			break
		}
	}
	if grp == nil {
		g.groups = append(groups, routeGroup{geom: geom, width: flowkey.NewReducer(geom.Width), rowWords: (geom.Width + 63) / 64, stride: 1})
		grp = &g.groups[len(groups)]
		grp.union = make([]atomic.Uint64, geom.Rows*grp.rowWords)
		grp.bits = make([]atomic.Uint64, geom.Rows*geom.Width*grp.stride)
	}
	li := len(grp.members)
	if li >= grp.stride*64 {
		grp.grow()
	}
	grp.members = append(grp.members, id)
	// One writer, so a load and a store make the OR; readers that share the
	// word load it atomically.
	lw, lb := li>>6, uint64(1)<<(li&63)
	for r := 0; r < geom.Rows; r++ {
		row := q.RowBits(r)
		for wi, word := range row {
			if word == 0 {
				continue
			}
			u := &grp.union[r*grp.rowWords+wi]
			u.Store(u.Load() | word)
			for word != 0 {
				idx := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b := &grp.bits[(r*geom.Width+idx)*grp.stride+lw]
				b.Store(b.Load() | lb)
			}
		}
	}
}

// grow doubles the member-bitset stride, re-laying the transposed bits into
// a fresh array: older copies of the index keep the one they have, which
// is not written again.
func (grp *routeGroup) grow() {
	ns := grp.stride * 2
	nb := make([]atomic.Uint64, len(grp.bits)*2)
	for i := range grp.bits {
		if v := grp.bits[i].Load(); v != 0 {
			nb[i/grp.stride*ns+i%grp.stride].Store(v)
		}
	}
	grp.bits, grp.stride = nb, ns
}

// misses reports whether no member can have a sample in [from, to): an
// empty index, an empty range, or one outside the hull of the spans.
func (g *RouteGroups) misses(from, to int64) bool {
	return len(g.spans) == 0 || from >= to || !overlaps(g.lo, g.hi, from, to)
}

// routeScratch pools Route's working bitmaps (result + group accumulator).
var routeScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Route appends to dst the ids, ascending, of exactly the members that
// might see f — every member whose row bitmaps cover f's bucket in all
// rows, plus every member that lists f as an orphan — and whose span
// meets the windows [from, to). A range the hull misses returns before f
// is hashed; all-time callers pass the full int64 range. Safe for
// concurrent use, also beside an Append to a later copy of g.
func (g *RouteGroups) Route(f flowkey.Key, from, to int64, dst []int) []int {
	if g.misses(from, to) {
		return dst
	}
	// No group has more members than the index, so resWords bounds every
	// accumulator.
	resWords := (len(g.spans) + 63) / 64
	sp := routeScratch.Get().(*[]uint64)
	scratch := *sp
	if cap(scratch) < 2*resWords {
		scratch = make([]uint64, 2*resWords)
	}
	res := scratch[:resWords]
	clear(res)
	p := f.Pack()
groups:
	for gi := range g.groups {
		grp := &g.groups[gi]
		n := len(grp.members)
		if n == 0 {
			continue
		}
		// Only the words and bits of g's own members: the shared bitmaps
		// may already hold members Appended to a later copy.
		acc := scratch[resWords : resWords+(n+63)>>6]
		last := ^uint64(0) >> (-n & 63)
		for r := 0; r < grp.geom.Rows; r++ {
			idx := grp.width.Index(p.Hash(flowkey.RowSeed(grp.geom.Seed, r)))
			if grp.union[r*grp.rowWords+idx>>6].Load()&(1<<(idx&63)) == 0 {
				continue groups
			}
			mb := grp.bits[(r*grp.geom.Width+idx)*grp.stride:]
			if r == 0 {
				for w := range acc {
					acc[w] = mb[w].Load()
				}
				acc[len(acc)-1] &= last
				continue
			}
			any := uint64(0)
			for w := range acc {
				acc[w] &= mb[w].Load()
				any |= acc[w]
			}
			if any == 0 {
				continue groups
			}
		}
		for w, word := range acc {
			for word != 0 {
				li := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				id := grp.members[li]
				res[id>>6] |= 1 << (id & 63)
			}
		}
	}
	for _, o := range g.orphans {
		if o.key == f {
			res[o.member>>6] |= 1 << (o.member & 63)
		}
	}
	for w, word := range res {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if span := g.spans[id]; overlaps(span[0], span[1], from, to) {
				dst = append(dst, id)
			}
		}
	}
	*sp = scratch
	routeScratch.Put(sp)
	return dst
}
