package report

// Window-global flow routing and the max-merge over it: a RoutedSet merges
// the per-report non-empty-bucket bitmaps of its members into one index, so
// a query plane holding thousands of reports finds the handful that can
// answer a flow without probing each report. Members are dense ids 0..n-1
// in admission order; Route returns exactly the members that might see a
// flow — a heavy entry for it, or a non-empty bucket at its position in
// every row — and whose curve span, kept beside the member, meets the
// queried windows, so MergeFlow, which max-merges the routed reports,
// answers identically to a full scan: every member left out estimates
// identically zero over the range.
//
// Every member shares one sketch: the set takes its SketchMeta from its
// first member, and the row seeds and width reducer with it. A FlowQuery
// hashes the flow once for that sketch: routing and each routed member's
// light estimate, in every set of the sketch, read those bucket indexes. The
// per-bucket occupancy of all members is held transposed (one member bitset
// per (row, bucket) position), so the AND-across-rows a per-report check
// would do becomes a handful of word ANDs whose result words are the member
// ids. A per-row union bitmap bails out early when no member has the flow's
// bucket occupied. Extend refuses a report of another sketch.
//
// Heavy flows need no postings of their own: a sketch updates its light
// part for every packet (§4.2), so a heavy key's light buckets are occupied
// in every row and the bitmaps route it. NewQueryable refuses a report for
// which that does not hold — hand-built or hostile — so every member is
// routed by its bitmaps alone.
//
// The set is append-only with published lengths. A successor made by Extend
// owns its slice headers and shares what they point at with its
// predecessor: Extend writes the member past every older length, in spare
// capacity or a grown copy, and ORs its bit into the shared bitmap words
// atomically. Route loads those words atomically and masks member ids at or
// past its own length, so a set a snapshot published keeps its answers, for
// ever, and MergeFlow runs lock-free beside the one writer. What keeps that
// true is the extend-once rule: of all the sets sharing arrays only the
// newest may be extended.

import (
	"fmt"
	"math/bits"
	"slices"
	"sync/atomic"
)

// RoutedSet is a set of Queryables of one sketch behind their routing
// index, and the one owner of a flow-rate query over many reports: route by
// (flow, time), run the range query on exactly the reports routed,
// max-merge the answers. A flow is measured at its sender, so the maximum
// across reports selects the one that saw it; the merge folds non-negative
// values from zero, so the answer is bit-identical to querying every
// member. The zero value is an empty set.
type RoutedSet struct {
	qs     []*Queryable // member id → report, admission order
	spans  [][2]int64   // member id → its report's curve span [lo, hi)
	stride int          // words per member bitset
	// union[r*words+w] ORs every member's row-r occupancy bitmap.
	union []atomic.Uint64
	// bits holds the transposed member sets: for bucket position (r, idx),
	// bits[(r*Width+idx)*stride : +stride] is the bitset of the ids of the
	// members whose report has that bucket occupied.
	bits []atomic.Uint64
	// [lo, hi) is the hull of the members' curve spans (lo >= hi: no member
	// has a sample).
	lo, hi int64
	// extended is the writer's mark that a successor now owns the arrays'
	// spare capacity. Readers never look at it.
	extended bool
}

// Len reports how many reports the set holds.
func (s *RoutedSet) Len() int { return len(s.qs) }

// Queryables returns the members in admission order. The slice is the
// set's own: read it, do not change it.
func (s *RoutedSet) Queryables() []*Queryable { return s.qs }

// Span returns the hull [lo, hi) of the members' curve spans — the windows
// a query can hit; lo >= hi when no member has a sample.
func (s *RoutedSet) Span() (lo, hi int64) { return s.lo, s.hi }

// Extend returns a successor holding q after s's members, at a cost that
// does not depend on how many those are. It refuses q, leaving s as it was,
// when q's sketch is not the members'. s keeps answering as before, also
// while later successors are made, but can itself be extended no further: a
// set is extended at most once, by the one writer.
func (s *RoutedSet) Extend(q *Queryable) (*RoutedSet, error) {
	if s.extended {
		panic("report: RoutedSet extended twice")
	}
	ns := *s
	id := len(s.qs)
	meta := q.rep.Meta
	lo, hi := q.Span()
	if id == 0 {
		ns.stride = 1
		ns.union = make([]atomic.Uint64, len(q.rep.rowBits))
		ns.bits = make([]atomic.Uint64, meta.Rows*meta.Width)
		ns.lo, ns.hi = lo, hi
	} else if first := s.qs[0].rep; meta != first.Meta {
		return nil, fmt.Errorf("report: host %d's sketch %+v is not the set's %+v", q.rep.Host, meta, first.Meta)
	}
	ns.lo, ns.hi = min(ns.lo, lo), max(ns.hi, hi)
	if id >= ns.stride*64 {
		ns.grow()
	}
	ns.qs = append(s.qs, q)
	ns.spans = append(s.spans, [2]int64{lo, hi})
	// One writer, so a load and a store make the OR; readers that share the
	// word load it atomically.
	lw, lb := id>>6, uint64(1)<<(id&63)
	for r := 0; r < meta.Rows; r++ {
		for wi, word := range q.rep.rowBits[r*q.words : (r+1)*q.words] {
			if word == 0 {
				continue
			}
			u := &ns.union[r*q.words+wi]
			u.Store(u.Load() | word)
			for word != 0 {
				idx := wi<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				b := &ns.bits[(r*meta.Width+idx)*ns.stride+lw]
				b.Store(b.Load() | lb)
			}
		}
	}
	s.extended = true
	return &ns, nil
}

// grow doubles the member-bitset stride, re-laying the transposed bits into
// a fresh array: older sets keep the one they have, which is not written
// again.
func (s *RoutedSet) grow() {
	ns := s.stride * 2
	nb := make([]atomic.Uint64, len(s.bits)*2)
	for i := range s.bits {
		if v := s.bits[i].Load(); v != 0 {
			nb[i/s.stride*ns+i%s.stride].Store(v)
		}
	}
	s.bits, s.stride = nb, ns
}

// misses reports whether no member can have a sample in [from, to): an
// empty set, an empty range, or one outside the hull of the spans.
func (s *RoutedSet) misses(from, to int64) bool {
	return len(s.qs) == 0 || from >= to || !overlaps(s.lo, s.hi, from, to)
}

// Route appends to dst the ids, ascending, of exactly the members that
// might see fq's flow — every member whose row bitmaps cover the flow's
// bucket in all rows — and whose span meets fq's windows. A range the hull
// misses returns before the flow is hashed; all-time callers pass the full
// int64 range. Safe for concurrent use, also beside an Extend of s.
func (s *RoutedSet) Route(fq *FlowQuery, dst []int) []int {
	if s.misses(fq.from, fq.to) {
		return dst
	}
	n := len(s.qs)
	acc := slices.Grow(fq.acc[:0], (n+63)>>6)[:(n+63)>>6]
	fq.acc = acc
	if !s.occupied(fq.rows(s.qs[0]), acc) {
		return dst
	}
	// Only s's own members: the shared bitmaps may already hold members of a
	// successor.
	acc[len(acc)-1] &= ^uint64(0) >> (-n & 63)
	for w, word := range acc {
		for word != 0 {
			id := w<<6 + bits.TrailingZeros64(word)
			word &= word - 1
			if sp := s.spans[id]; overlaps(sp[0], sp[1], fq.from, fq.to) {
				dst = append(dst, id)
			}
		}
	}
	return dst
}

// occupied ANDs into acc, over every row, the bitset of the members with
// the bucket at idx[row] occupied, and reports false as soon as it is
// empty.
func (s *RoutedSet) occupied(idx []int, acc []uint64) bool {
	q0 := s.qs[0] // the set's geometry
	for r, i := range idx {
		if s.union[r*q0.words+i>>6].Load()&(1<<(i&63)) == 0 {
			return false
		}
		mb := s.bits[(r*q0.rep.Meta.Width+i)*s.stride:]
		any := uint64(0)
		for w := range acc {
			if r == 0 {
				acc[w] = mb[w].Load()
			} else {
				acc[w] &= mb[w].Load()
			}
			any |= acc[w]
		}
		if any == 0 {
			return false
		}
	}
	return true
}

// MergeFlow folds fq's per-window estimates from every member the index
// routes the query to into out by element-wise maximum, and returns how
// many members it visited. out must hold fq's to-from elements; callers
// folding several sets pass the same out and the same plan to each, so the
// flow is hashed once for every set of one sketch. A range the set's span
// misses costs one comparison.
func (s *RoutedSet) MergeFlow(out []float64, fq *FlowQuery) (visited int) {
	fq.ids = s.Route(fq, fq.ids[:0])
	if len(fq.ids) == 0 {
		return 0
	}
	idx := fq.rows(s.qs[0]) // as Route hashed it: Extend admits one sketch
	for _, id := range fq.ids {
		fq.buf = s.qs[id].rangeInto(fq.buf[:0], fq, idx)
		for i, v := range fq.buf {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	return len(fq.ids)
}
