package report

import (
	"sync"

	"umon/internal/flowkey"
)

// RoutedSet is a set of Queryables behind their routing index, and the one
// owner of a flow-rate query over many reports: route by (flow, time), run
// the range query on exactly the reports routed, max-merge the answers. A
// flow is measured at its sender, so the maximum across reports selects
// the one that saw it; every report the index leaves out estimates
// identically zero over the range and the merge folds non-negative values
// from zero, so the answer is bit-identical to querying every member.
//
// The set is append-only, as its index is (route.go): the batch analyzer
// holds one and Appends in place; the collector holds one per epoch and
// publishes successors made by Extend, which share every array with their
// predecessor and differ in their lengths, so a set reachable from a
// published snapshot keeps its answers and MergeFlow runs lock-free beside
// the one writer. The zero value is an empty set.
type RoutedSet struct {
	qs     []*Queryable // member id → report, admission order
	routes RouteGroups
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
func (s *RoutedSet) Span() (lo, hi int64) { return s.routes.Span() }

// Append adds q as the next member in place. Not safe to race with
// queries on s; publishers use Extend.
func (s *RoutedSet) Append(q *Queryable) {
	if s.extended {
		panic("report: RoutedSet extended twice")
	}
	s.qs = append(s.qs, q)
	s.routes.Append(q)
}

// Extend returns a successor holding q after s's members, at a cost that
// does not depend on how many those are. s keeps answering as before, also
// while later successors are made, but can itself be extended no further: a
// set is extended at most once, by the one writer.
func (s *RoutedSet) Extend(q *Queryable) *RoutedSet {
	ns := *s
	ns.Append(q) // panics if s was extended before
	s.extended = true
	return &ns
}

// Route appends to dst the member ids a query for f over windows
// [from, to) would visit (see RouteGroups.Route).
func (s *RoutedSet) Route(f flowkey.Key, from, to int64, dst []int) []int {
	return s.routes.Route(f, from, to, dst)
}

// mergeScratch is MergeFlow's working memory: routed ids and one report's
// answer. Pooled, so a query allocates only its caller's out.
type mergeScratch struct {
	ids []int
	buf []float64
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// MergeFlow folds flow f's per-window estimates over [from, to) from every
// member the index routes the query to into out by element-wise maximum,
// and returns how many members it visited. out must hold to-from elements;
// callers folding several sets pass the same out to each. A range the
// set's span misses costs one comparison.
func (s *RoutedSet) MergeFlow(out []float64, f flowkey.Key, from, to int64) (visited int) {
	if s.routes.misses(from, to) {
		return 0
	}
	sc := mergePool.Get().(*mergeScratch)
	sc.ids = s.routes.Route(f, from, to, sc.ids[:0])
	for _, id := range sc.ids {
		sc.buf = s.qs[id].QueryRangeInto(sc.buf[:0], f, from, to)
		for i, v := range sc.buf {
			if v > out[i] {
				out[i] = v
			}
		}
	}
	visited = len(sc.ids)
	mergePool.Put(sc)
	return visited
}
