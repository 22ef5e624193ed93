package report

// Window-global flow routing: RouteGroups merges the per-report
// non-empty-bucket bitmaps (MightSee's evidence) and heavy-flow sets of
// many Queryables into one index, so a query plane holding thousands of
// reports finds the handful that can answer a flow without probing each
// report. Members are dense ids 0..n-1 in admission order; Route returns
// exactly the members whose MightSee(f) is true — light-part membership is
// decided by the same bitmaps MightSee reads, heavy membership by exact
// postings — and whose curve span meets the queried windows, so consumers
// that max-merge routed reports answer identically to a full scan: every
// member left out estimates identically zero over the range.
//
// Reports are grouped by hash Geometry: within a group the queried flow is
// hashed once per row, and the per-bucket occupancy of all members is held
// transposed (one member-bitset per (row, bucket) position), so the
// AND-across-rows that MightSee does per report becomes a handful of word
// ANDs for the whole group. A per-row union bitmap bails out early when no
// member has the flow's bucket occupied.
//
// Two build modes share the layout: Append mutates in place (single-owner
// builders like the batch analyzer), CloneAdd copies first (copy-on-write
// snapshot publishers like the collector — the clone is a few memcpys of
// flat slices, and published indexes are never mutated, so readers route
// lock-free). Route is safe for concurrent use against a quiescent index.

import (
	"math/bits"
	"sort"
	"sync"

	"umon/internal/flowkey"
)

// heavyPosting routes one heavy flow to one member, sorted by (key,
// member) for binary search.
type heavyPosting struct {
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
	union []uint64
	// bits holds the transposed member sets: for bucket position (r, idx),
	// bits[(r*Width+idx)*stride : +stride] is the bitset of local member
	// indices whose report has that bucket occupied.
	bits []uint64
}

// RouteGroups is a flow→member routing index over a window of Queryables.
type RouteGroups struct {
	n        int // members added; ids are 0..n-1
	resWords int // (n+63)/64, result-bitmap sizing for Route
	groups   []*routeGroup
	postings []heavyPosting
	// Time dimension: spans[id] is member id's curve span {lo, hi}, and
	// [lo, hi) the hull of them all (lo >= hi: no member has a sample).
	spans  [][2]int64
	lo, hi int64
}

// Len reports how many members have been added.
func (g *RouteGroups) Len() int { return g.n }

// Span returns the hull [lo, hi) of the members' curve spans — the windows
// a query can hit; lo >= hi when no member has a sample.
func (g *RouteGroups) Span() (lo, hi int64) { return g.lo, g.hi }

// Append adds q as the next member, mutating the index in place. Not safe
// to race with Route; copy-on-write publishers use CloneAdd instead.
func (g *RouteGroups) Append(q *Queryable) {
	id := g.n
	lo, hi := q.Span()
	if id == 0 {
		g.lo, g.hi = lo, hi
	}
	g.lo, g.hi = min(g.lo, lo), max(g.hi, hi)
	g.spans = append(g.spans, [2]int64{lo, hi})
	g.n++
	g.resWords = (g.n + 63) / 64
	geom := q.Geometry()
	var grp *routeGroup
	for _, c := range g.groups {
		if c.geom == geom {
			grp = c
			break
		}
	}
	if grp == nil {
		grp = &routeGroup{geom: geom, width: flowkey.NewReducer(geom.Width), rowWords: (geom.Width + 63) / 64, stride: 1}
		if geom.Rows > 0 && geom.Width > 0 {
			grp.union = make([]uint64, geom.Rows*grp.rowWords)
			grp.bits = make([]uint64, geom.Rows*geom.Width*grp.stride)
		}
		g.groups = append(g.groups, grp)
	}
	li := len(grp.members)
	if li >= grp.stride*64 {
		grp.grow()
	}
	grp.members = append(grp.members, id)
	lw, lb := li>>6, uint64(1)<<(li&63)
	for r := 0; r < geom.Rows; r++ {
		row := q.RowBits(r)
		for wi, word := range row {
			grp.union[r*grp.rowWords+wi] |= word
			for word != 0 {
				idx := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				grp.bits[(r*geom.Width+idx)*grp.stride+lw] |= lb
			}
		}
	}
	g.addPostings(id, q.HeavyFlows())
}

// addPostings merge-inserts the member's heavy keys. The new member id is
// the largest so far, so on key ties its postings sort last; a single
// backward merge keeps postings sorted by (key, member).
func (g *RouteGroups) addPostings(id int, keys []flowkey.Key) {
	if len(keys) == 0 {
		return
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	add := make([]heavyPosting, len(keys))
	for i, k := range keys {
		add[i] = heavyPosting{key: k, member: id}
	}
	old := g.postings
	g.postings = append(g.postings, add...)
	i, j, k := len(old)-1, len(add)-1, len(g.postings)-1
	for j >= 0 {
		if i >= 0 && old[i].key.Compare(add[j].key) > 0 {
			g.postings[k] = old[i]
			i--
		} else {
			g.postings[k] = add[j]
			j--
		}
		k--
	}
}

// CloneAdd returns a new index with q appended, leaving g untouched — the
// copy-on-write admit path. The receiver may keep serving Route calls. The
// result is a value so that a RoutedSet embeds it without a second
// allocation.
func (g *RouteGroups) CloneAdd(q *Queryable) RouteGroups {
	ng := RouteGroups{
		n:        g.n,
		resWords: g.resWords,
		groups:   make([]*routeGroup, len(g.groups)),
		postings: append([]heavyPosting(nil), g.postings...),
		spans:    append(make([][2]int64, 0, g.n+1), g.spans...), // room for q: one allocation
		lo:       g.lo,
		hi:       g.hi,
	}
	geom := q.Geometry()
	for i, c := range g.groups {
		if c.geom != geom {
			// Untouched groups are immutable once published: share them.
			ng.groups[i] = c
			continue
		}
		ng.groups[i] = &routeGroup{
			geom: c.geom, width: c.width, rowWords: c.rowWords, stride: c.stride,
			members: append(make([]int, 0, len(c.members)+1), c.members...),
			union:   append([]uint64(nil), c.union...),
			bits:    append([]uint64(nil), c.bits...),
		}
	}
	ng.Append(q)
	return ng
}

// grow doubles the member-bitset stride, re-laying the transposed bits.
func (grp *routeGroup) grow() {
	ns := grp.stride * 2
	positions := len(grp.bits) / grp.stride
	nb := make([]uint64, positions*ns)
	for pos := 0; pos < positions; pos++ {
		copy(nb[pos*ns:], grp.bits[pos*grp.stride:(pos+1)*grp.stride])
	}
	grp.bits, grp.stride = nb, ns
}

// misses reports whether no member can have a sample in [from, to): an
// empty index, an empty range, or one outside the hull of the spans.
func (g *RouteGroups) misses(from, to int64) bool {
	return g.n == 0 || from >= to || !overlaps(g.lo, g.hi, from, to)
}

// routeScratch pools Route's working bitmaps (result + group accumulator).
var routeScratch = sync.Pool{New: func() any { return new([]uint64) }}

// Route appends to dst the ids, ascending, of exactly the members whose
// MightSee(f) is true — every member holding a heavy entry for f, plus
// every member whose row bitmaps cover f's bucket in all rows — and whose
// span meets the windows [from, to). A range the hull misses returns
// before f is hashed; all-time callers pass the full int64 range. Safe for
// concurrent use (against an index no longer being Appended to).
func (g *RouteGroups) Route(f flowkey.Key, from, to int64, dst []int) []int {
	if g.misses(from, to) {
		return dst
	}
	maxStride := 0
	for _, grp := range g.groups {
		if grp.stride > maxStride {
			maxStride = grp.stride
		}
	}
	sp := routeScratch.Get().(*[]uint64)
	scratch := *sp
	if need := g.resWords + maxStride; cap(scratch) < need {
		scratch = make([]uint64, need)
	}
	res := scratch[:g.resWords]
	for i := range res {
		res[i] = 0
	}
	p := f.Pack()
	for _, grp := range g.groups {
		if grp.geom.Rows <= 0 || grp.geom.Width <= 0 || len(grp.members) == 0 {
			continue
		}
		acc := scratch[g.resWords : g.resWords+grp.stride]
		live := true
		for r := 0; r < grp.geom.Rows; r++ {
			idx := grp.width.Index(p.Hash(flowkey.RowSeed(grp.geom.Seed, r)))
			if grp.union[r*grp.rowWords+idx>>6]&(1<<(idx&63)) == 0 {
				live = false
				break
			}
			mb := grp.bits[(r*grp.geom.Width+idx)*grp.stride:]
			if r == 0 {
				copy(acc, mb[:grp.stride])
				continue
			}
			any := uint64(0)
			for w := range acc {
				acc[w] &= mb[w]
				any |= acc[w]
			}
			if any == 0 {
				live = false
				break
			}
		}
		if !live {
			continue
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
	i := sort.Search(len(g.postings), func(i int) bool { return g.postings[i].key.Compare(f) >= 0 })
	for ; i < len(g.postings) && g.postings[i].key == f; i++ {
		id := g.postings[i].member
		res[id>>6] |= 1 << (id & 63)
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
