package report

import (
	"math/bits"
	"sort"

	"umon/internal/flowkey"
)

// The copying routing index the append-only RouteGroups replaced, kept as
// the reference its differential test compares against: CloneAdd copies
// every posting and every transposed bitmap before it adds a member, so no
// two indexes share a word, and heavy flows are routed by exact sorted
// postings, not by the light bitmaps they occupy.

type oraclePosting struct {
	key    flowkey.Key
	member int
}

type oracleGroup struct {
	geom     Geometry
	width    flowkey.Reducer
	rowWords int
	members  []int
	stride   int
	union    []uint64
	bits     []uint64
}

type oracleRouteGroups struct {
	n        int
	resWords int
	groups   []*oracleGroup
	postings []oraclePosting
	spans    [][2]int64
	lo, hi   int64
}

func (g *oracleRouteGroups) Append(q *Queryable) {
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
	var grp *oracleGroup
	for _, c := range g.groups {
		if c.geom == geom {
			grp = c
			break
		}
	}
	if grp == nil {
		grp = &oracleGroup{geom: geom, width: flowkey.NewReducer(geom.Width), rowWords: (geom.Width + 63) / 64, stride: 1}
		if geom.Rows > 0 && geom.Width > 0 {
			grp.union = make([]uint64, geom.Rows*grp.rowWords)
			grp.bits = make([]uint64, geom.Rows*geom.Width*grp.stride)
		}
		g.groups = append(g.groups, grp)
	}
	li := len(grp.members)
	if li >= grp.stride*64 {
		ns := grp.stride * 2
		positions := len(grp.bits) / grp.stride
		nb := make([]uint64, positions*ns)
		for pos := 0; pos < positions; pos++ {
			copy(nb[pos*ns:], grp.bits[pos*grp.stride:(pos+1)*grp.stride])
		}
		grp.bits, grp.stride = nb, ns
	}
	grp.members = append(grp.members, id)
	lw, lb := li>>6, uint64(1)<<(li&63)
	for r := 0; r < geom.Rows; r++ {
		for wi, word := range q.RowBits(r) {
			grp.union[r*grp.rowWords+wi] |= word
			for word != 0 {
				idx := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				grp.bits[(r*geom.Width+idx)*grp.stride+lw] |= lb
			}
		}
	}
	// The new member id is the largest so far, so on key ties its postings
	// sort last; a single backward merge keeps postings sorted by (key,
	// member).
	keys := q.HeavyFlows()
	sort.Slice(keys, func(i, j int) bool { return keys[i].Compare(keys[j]) < 0 })
	old := g.postings
	g.postings = append(g.postings, make([]oraclePosting, len(keys))...)
	i, j, k := len(old)-1, len(keys)-1, len(g.postings)-1
	for j >= 0 {
		if i >= 0 && old[i].key.Compare(keys[j]) > 0 {
			g.postings[k] = old[i]
			i--
		} else {
			g.postings[k] = oraclePosting{key: keys[j], member: id}
			j--
		}
		k--
	}
}

// CloneAdd returns a new index with q appended, leaving g untouched.
func (g *oracleRouteGroups) CloneAdd(q *Queryable) *oracleRouteGroups {
	ng := &oracleRouteGroups{
		n:        g.n,
		resWords: g.resWords,
		groups:   make([]*oracleGroup, len(g.groups)),
		postings: append([]oraclePosting(nil), g.postings...),
		spans:    append([][2]int64(nil), g.spans...),
		lo:       g.lo,
		hi:       g.hi,
	}
	for i, c := range g.groups {
		ng.groups[i] = &oracleGroup{
			geom: c.geom, width: c.width, rowWords: c.rowWords, stride: c.stride,
			members: append([]int(nil), c.members...),
			union:   append([]uint64(nil), c.union...),
			bits:    append([]uint64(nil), c.bits...),
		}
	}
	ng.Append(q)
	return ng
}

func (g *oracleRouteGroups) Route(f flowkey.Key, from, to int64, dst []int) []int {
	if g.n == 0 || from >= to || !overlaps(g.lo, g.hi, from, to) {
		return dst
	}
	res := make([]uint64, g.resWords)
	p := f.Pack()
	for _, grp := range g.groups {
		if grp.geom.Rows <= 0 || grp.geom.Width <= 0 || len(grp.members) == 0 {
			continue
		}
		acc := make([]uint64, grp.stride)
		for r := 0; r < grp.geom.Rows; r++ {
			idx := grp.width.Index(p.Hash(flowkey.RowSeed(grp.geom.Seed, r)))
			mb := grp.bits[(r*grp.geom.Width+idx)*grp.stride:]
			for w := range acc {
				if r == 0 {
					acc[w] = mb[w]
				} else {
					acc[w] &= mb[w]
				}
			}
		}
		for w, word := range acc {
			for word != 0 {
				id := grp.members[w<<6+bits.TrailingZeros64(word)]
				word &= word - 1
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
	return dst
}

// oracleRoutedSet is the copying RoutedSet: its own member slice behind its
// own index, and MergeFlow without pooled scratch.
type oracleRoutedSet struct {
	qs     []*Queryable
	routes *oracleRouteGroups
}

func (s *oracleRoutedSet) CloneAdd(q *Queryable) *oracleRoutedSet {
	return &oracleRoutedSet{qs: append(append([]*Queryable(nil), s.qs...), q), routes: s.routes.CloneAdd(q)}
}

func (s *oracleRoutedSet) MergeFlow(out []float64, f flowkey.Key, from, to int64) (visited int) {
	ids := s.routes.Route(f, from, to, nil)
	for _, id := range ids {
		for i, v := range s.qs[id].QueryRange(f, from, to) {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return len(ids)
}
