package report

import (
	"math/bits"
	"slices"
	"sort"

	"umon/internal/flowkey"
)

// oracleRoutedSet is the copying routing index the append-only RoutedSet
// replaced, kept as the reference its differential test compares against:
// CloneAdd copies every posting and every transposed bitmap before it adds
// a member, so no two sets share a word; it finds each member's buckets by
// probing every position, hashes a queried flow afresh, and routes heavy
// flows by exact sorted postings, not by the light bitmaps they occupy.
// Its members share one sketch, as a RoutedSet's do.
type oracleRoutedSet struct {
	qs       []*Queryable
	stride   int
	bits     []uint64 // bits[(r*Width+idx)*stride:+stride]: members with bucket (r, idx)
	postings []oraclePosting
	lo, hi   int64
}

type oraclePosting struct {
	key    flowkey.Key
	member int
}

// CloneAdd returns a new set with q appended, leaving s untouched.
func (s *oracleRoutedSet) CloneAdd(q *Queryable) *oracleRoutedSet {
	ns := &oracleRoutedSet{
		qs:       append(slices.Clone(s.qs), q),
		stride:   s.stride,
		bits:     slices.Clone(s.bits),
		postings: slices.Clone(s.postings),
		lo:       s.lo,
		hi:       s.hi,
	}
	id := len(s.qs)
	meta := q.rep.Meta
	lo, hi := q.Span()
	if id == 0 {
		ns.stride, ns.bits = 1, make([]uint64, meta.Rows*meta.Width)
		ns.lo, ns.hi = lo, hi
	}
	ns.lo, ns.hi = min(ns.lo, lo), max(ns.hi, hi)
	if id >= ns.stride*64 {
		stride := ns.stride * 2
		nb := make([]uint64, meta.Rows*meta.Width*stride)
		for pos := 0; pos < meta.Rows*meta.Width; pos++ {
			copy(nb[pos*stride:], ns.bits[pos*ns.stride:(pos+1)*ns.stride])
		}
		ns.bits, ns.stride = nb, stride
	}
	for r := 0; r < meta.Rows; r++ {
		for idx := 0; idx < meta.Width; idx++ {
			if q.bucket(r, idx) >= 0 {
				ns.bits[(r*meta.Width+idx)*ns.stride+id>>6] |= 1 << (id & 63)
			}
		}
	}
	// The new member id is the largest so far, so on key ties its postings
	// sort last; a stable sort keeps postings sorted by (key, member).
	for _, k := range q.HeavyFlows() {
		ns.postings = append(ns.postings, oraclePosting{key: k, member: id})
	}
	sort.SliceStable(ns.postings, func(i, j int) bool { return ns.postings[i].key.Compare(ns.postings[j].key) < 0 })
	return ns
}

func (s *oracleRoutedSet) Route(f flowkey.Key, from, to int64, dst []int) []int {
	if len(s.qs) == 0 || from >= to || !overlaps(s.lo, s.hi, from, to) {
		return dst
	}
	meta := s.qs[0].rep.Meta
	res := make([]uint64, s.stride)
	for r := 0; r < meta.Rows; r++ {
		idx := int(f.Hash(flowkey.RowSeed(meta.Seed, r)) % uint64(meta.Width))
		mb := s.bits[(r*meta.Width+idx)*s.stride:]
		for w := range res {
			if r == 0 {
				res[w] = mb[w]
			} else {
				res[w] &= mb[w]
			}
		}
	}
	i := sort.Search(len(s.postings), func(i int) bool { return s.postings[i].key.Compare(f) >= 0 })
	for ; i < len(s.postings) && s.postings[i].key == f; i++ {
		id := s.postings[i].member
		res[id>>6] |= 1 << (id & 63)
	}
	for w, word := range res {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if lo, hi := s.qs[id].Span(); overlaps(lo, hi, from, to) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

func (s *oracleRoutedSet) MergeFlow(out []float64, f flowkey.Key, from, to int64) (visited int) {
	ids := s.Route(f, from, to, nil)
	for _, id := range ids {
		for i, v := range s.qs[id].QueryRange(f, from, to) {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return len(ids)
}
