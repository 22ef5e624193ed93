package collect

// The collector's lock-free read plane. Mutators (Add/AddMirror/Poll —
// one writer at a time, see the package comment) build an immutable successor
// Snapshot by copying the small epoch spine and publish it through an
// atomic pointer; readers Load the pointer and answer queries without ever
// blocking ingest, so a slow HTTP client cannot stall sealing or admission
// and query throughput scales across cores.
//
// A successor is cheap because the window is layered: the spine (epoch list
// + per-epoch index pointers) is O(window) pointers and is copied; the one
// epochIndex an admit touches is extended, not copied — its successor
// shares the host, member and bitmap arrays with it and holds one more
// element of each (report/route.go), so an admit costs what its report
// costs however many hosts the epoch holds; and the Queryables are
// concurrency-safe and shared by every snapshot that references them.
//
// Each epochIndex carries a report.RoutedSet — the same routed max-merge
// the batch analyzer answers from: a query visits only the reports that
// might see the flow and whose curves meet the queried windows, and an
// epoch whose span misses the range costs one comparison, no hash. One
// report.FlowQuery carries a query across the window: one hash per sketch,
// one pooled scratch. Skipped reports estimate identically zero, so routed
// answers are bit-identical to a scan of the whole window.

import (
	"slices"
	"sync/atomic"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/report"
)

// epochIndex is one epoch's resident set: reports in admission order behind
// the epoch's routing index. A published epochIndex keeps its lengths, and
// with them its answers; admits produce a successor via withReport, at most
// one per index.
type epochIndex struct {
	epoch uint64
	hosts []int // parallel to set's members, admission order
	set   *report.RoutedSet
}

// withReport returns a successor index with q admitted for host. added
// reports whether residency grew (false on a host re-admission, which
// replaces the previous report and rebuilds this epoch's routing index). It
// returns the set's refusal of q.
func (ei *epochIndex) withReport(host int, q *report.Queryable) (ni *epochIndex, added bool, err error) {
	if i := slices.Index(ei.hosts, host); i >= 0 {
		set := &report.RoutedSet{}
		for j, qq := range ei.set.Queryables() {
			if j == i {
				qq = q
			}
			if set, err = set.Extend(qq); err != nil {
				return nil, false, err
			}
		}
		return &epochIndex{epoch: ei.epoch, hosts: append([]int(nil), ei.hosts...), set: set}, false, nil
	}
	set, err := ei.set.Extend(q)
	if err != nil {
		return nil, false, err
	}
	// hosts grows as the set's arrays do: past ei's length, where no reader
	// of ei looks.
	return &epochIndex{epoch: ei.epoch, hosts: append(ei.hosts, host), set: set}, true, nil
}

// Snapshot is an immutable point-in-time view of the collector's window
// and emitted events. All methods are safe for concurrent use and never
// block ingest; a held Snapshot keeps answering identically — including
// for epochs the live window has since evicted — for as long as the
// caller retains it.
type Snapshot struct {
	version   int64
	publishNs int64
	floor     uint64
	resident  int
	epochs    []uint64 // ascending, parallel to eps
	eps       []*epochIndex
	events    []analyzer.Event // retained, emission order
	emitted   int              // events ever emitted, retained or not

	// Routing selectivity accounting, shared with the owning collector so
	// queries against held snapshots keep counting.
	visited, skipped *atomic.Int64
	stats            Stats
}

// Window describes the snapshot's window: admitted epochs (ascending) and
// total resident Queryables.
func (s *Snapshot) Window() (epochs []uint64, resident int) {
	return append([]uint64(nil), s.epochs...), s.resident
}

// Events returns the events retained at this snapshot — the newest
// EventLogCap emitted up to it — sorted by analyzer.SortEvents.
func (s *Snapshot) Events() []analyzer.Event {
	evs := make([]analyzer.Event, len(s.events))
	copy(evs, s.events)
	analyzer.SortEvents(evs)
	return evs
}

// EventLog returns the stretch of the emission log this snapshot retains,
// in emission order: evs[i] is the event of id first+i, where an event's id
// is its emission index. The slice is shared; callers must not modify it.
func (s *Snapshot) EventLog() (evs []analyzer.Event, first int) {
	return s.events, s.emitted - len(s.events)
}

// Span returns the hull [lo, hi) of the resident reports' curve spans in
// window ids — the range a query can hit; lo == hi when nothing resident
// carries a sample.
func (s *Snapshot) Span() (lo, hi int64) {
	for _, ei := range s.eps {
		l, h := ei.set.Span()
		if l >= h {
			continue
		}
		if lo >= hi {
			lo, hi = l, h
		}
		lo, hi = min(lo, l), max(hi, h)
	}
	return lo, hi
}

// ResidentCurves totals decoded curves across the snapshot's window.
func (s *Snapshot) ResidentCurves() int {
	n := 0
	for _, ei := range s.eps {
		for _, q := range ei.set.Queryables() {
			n += q.ResidentCurves()
		}
	}
	return n
}

// QueryFlow estimates flow f's per-window byte counts over [from, to) by
// folding every resident epoch's routed max-merge into its one allocation,
// the answer — bit-identical to scanning the whole window, at a cost that
// scales with the flow's footprint instead of (window × hosts).
func (s *Snapshot) QueryFlow(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	visited := 0
	fq := report.NewFlowQuery(f, from, to)
	for _, ei := range s.eps {
		visited += ei.set.MergeFlow(out, fq)
	}
	fq.Release()
	if s.visited != nil {
		s.visited.Add(int64(visited))
		s.skipped.Add(int64(s.resident - visited))
	}
	s.stats.RouteVisited.Add(int64(visited))
	s.stats.RouteSkipped.Add(int64(s.resident - visited))
	return out
}

// Replay queries every flow of an emitted event over the event span plus
// margin. All per-flow queries read this one snapshot, so the view is
// internally consistent even while ingest keeps publishing successors.
func (s *Snapshot) Replay(ev analyzer.Event, marginNs int64) *analyzer.ReplayView {
	return analyzer.ReplayWith(ev, marginNs, s.QueryFlow)
}
