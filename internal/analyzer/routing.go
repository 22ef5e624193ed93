package analyzer

import (
	"math"
	"sync"

	"umon/internal/flowkey"
)

// RoutedReports reports how many host reports a query for f would touch —
// the routing index's selectivity, for observability and experiments.
func (a *Analyzer) RoutedReports(f flowkey.Key) int {
	return len(a.routeFlow(f, math.MinInt64, math.MaxInt64, nil))
}

// routeFlow appends to dst the positions of the reports that can answer a
// non-zero estimate for f over windows [from, to): the ones holding a
// dedicated heavy entry plus the ones whose non-empty-bucket bitmaps cover
// the flow in every row, less those whose curves miss the range — one
// RouteGroups probe (the flow hashed once per geometry, not once per
// report) instead of a MightSee scan over every report. Skipped reports
// would contribute an identically-zero curve to QueryFlow's max-merge, so
// routing never changes a query result.
func (a *Analyzer) routeFlow(f flowkey.Key, from, to int64, dst []int) []int {
	before := len(dst)
	dst = a.routes.Route(f, from, to, dst)
	visited := int64(len(dst) - before)
	a.stats.ReportsVisited.Add(visited)
	a.stats.ReportsSkipped.Add(int64(len(a.reports)) - visited)
	return dst
}

// Pools backing the query hot loop (queries run concurrently under
// Replay's fan-out): routed-position scratch and per-report result
// buffers.
var (
	routeIDsPool = sync.Pool{New: func() any { return new([]int) }}
	curvePool    = sync.Pool{New: func() any { return new([]float64) }}
)
