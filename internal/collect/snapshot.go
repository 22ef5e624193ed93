package collect

// The collector's lock-free read plane. Mutators (Add/AddMirror/Poll —
// externally serialized, exactly as before) build an immutable successor
// Snapshot by copying the small epoch spine and publish it through an
// atomic pointer; readers Load the pointer and answer queries without ever
// blocking ingest, so a slow HTTP client cannot stall sealing or admission
// and query throughput scales across cores.
//
// Copies stay cheap because the window is layered: the spine (epoch list +
// per-epoch index pointers) is O(window) pointers, one epochIndex is
// rebuilt or extended per admit (copy-on-write — published indexes are
// never mutated), and the Queryables themselves are internally
// concurrency-safe and shared by every snapshot that references them.
//
// Each epochIndex carries a report.RouteGroups: the window-global routing
// index that sends a query only to the reports whose MightSee is true and
// whose curves meet the queried windows — an epoch whose span misses the
// range costs one comparison, no hash.
// Routing can only exclude reports whose estimate is identically zero, and
// QueryFlow's max-merge starts from zero and folds non-negative estimates,
// so skipped reports cannot change any answer — routed results are
// bit-identical to a full scan (queryFlowScan below stays as the oracle
// and benchmark baseline).

import (
	"sort"
	"sync"
	"sync/atomic"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/parallel"
	"umon/internal/report"
)

// epochIndex is one epoch's immutable resident set: reports in admission
// order plus the epoch's routing index. Published epochIndexes are never
// mutated; admits produce a successor via withReport.
type epochIndex struct {
	epoch  uint64
	hosts  []int // parallel to qs, admission order
	qs     []*report.Queryable
	routes *report.RouteGroups
}

func (ei *epochIndex) find(host int) int {
	for i, h := range ei.hosts {
		if h == host {
			return i
		}
	}
	return -1
}

// withReport returns a successor index with q admitted for host. added
// reports whether residency grew (false on a host re-admission, which
// replaces the previous report and rebuilds this epoch's routing index).
func (ei *epochIndex) withReport(host int, q *report.Queryable) (ni *epochIndex, added bool) {
	if i := ei.find(host); i >= 0 {
		ni = &epochIndex{
			epoch:  ei.epoch,
			hosts:  append([]int(nil), ei.hosts...),
			qs:     append([]*report.Queryable(nil), ei.qs...),
			routes: &report.RouteGroups{},
		}
		ni.qs[i] = q
		for _, qq := range ni.qs {
			ni.routes.Append(qq)
		}
		return ni, false
	}
	ni = &epochIndex{
		epoch:  ei.epoch,
		hosts:  append(append(make([]int, 0, len(ei.hosts)+1), ei.hosts...), host),
		qs:     append(append(make([]*report.Queryable, 0, len(ei.qs)+1), ei.qs...), q),
		routes: ei.routes.CloneAdd(q),
	}
	return ni, true
}

// newEpochIndex starts an epoch with its first report.
func newEpochIndex(epoch uint64, host int, q *report.Queryable) *epochIndex {
	ei := &epochIndex{epoch: epoch, hosts: []int{host}, qs: []*report.Queryable{q}, routes: &report.RouteGroups{}}
	ei.routes.Append(q)
	return ei
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

// Version is the publication sequence number: it advances on every
// admit/evict/event emission, so pollers can detect window movement.
func (s *Snapshot) Version() int64 { return s.version }

// PublishNs is the wall-clock stamp of this snapshot's publication.
func (s *Snapshot) PublishNs() int64 { return s.publishNs }

// Window describes the snapshot's window: admitted epochs (ascending) and
// total resident Queryables.
func (s *Snapshot) Window() (epochs []uint64, resident int) {
	return append([]uint64(nil), s.epochs...), s.resident
}

// Events returns the events retained at this snapshot — the newest
// EventLogCap emitted up to it — sorted by (start, port).
func (s *Snapshot) Events() []analyzer.Event {
	evs := make([]analyzer.Event, len(s.events))
	copy(evs, s.events)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].StartNs != evs[j].StartNs {
			return evs[i].StartNs < evs[j].StartNs
		}
		a, b := evs[i].Port, evs[j].Port
		if a.Switch != b.Switch {
			return a.Switch < b.Switch
		}
		return a.Port < b.Port
	})
	return evs
}

// Span returns the hull [lo, hi) of the resident reports' curve spans in
// window ids — the range a query can hit; lo == hi when nothing resident
// carries a sample.
func (s *Snapshot) Span() (lo, hi int64) {
	for _, ei := range s.eps {
		l, h := ei.routes.Span()
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
		for _, q := range ei.qs {
			n += q.ResidentCurves()
		}
	}
	return n
}

// parallelRouteThreshold is the routed-report count past which QueryFlow
// fans the merge out over the worker pool. Below it the per-chunk buffers
// cost more than they save.
const parallelRouteThreshold = 64

var (
	// Pools backing the alloc-lean merge loop: routed-report lists, routing
	// id scratch, and per-report result buffers.
	routedPool = sync.Pool{New: func() any { return new([]*report.Queryable) }}
	idsPool    = sync.Pool{New: func() any { return new([]int) }}
	mergePool  = sync.Pool{New: func() any { return new([]float64) }}
)

// QueryFlow estimates flow f's per-window byte counts over [from, to) by
// max-merging exactly the resident reports the routing index selects —
// bit-identical to scanning the whole window, at a cost that scales with
// the flow's footprint instead of (window × hosts).
func (s *Snapshot) QueryFlow(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	rp := routedPool.Get().(*[]*report.Queryable)
	routed := (*rp)[:0]
	ip := idsPool.Get().(*[]int)
	ids := *ip
	for _, ei := range s.eps {
		ids = ei.routes.Route(f, from, to, ids[:0])
		for _, li := range ids {
			routed = append(routed, ei.qs[li])
		}
	}
	*ip = ids
	idsPool.Put(ip)
	if s.visited != nil {
		s.visited.Add(int64(len(routed)))
		s.skipped.Add(int64(s.resident - len(routed)))
	}
	s.stats.RouteVisited.Add(int64(len(routed)))
	s.stats.RouteSkipped.Add(int64(s.resident - len(routed)))

	if len(routed) < parallelRouteThreshold || len(out) == 0 {
		bp := mergePool.Get().(*[]float64)
		buf := *bp
		for _, q := range routed {
			buf = q.QueryRangeInto(buf[:0], f, from, to)
			for i, v := range buf {
				if v > out[i] {
					out[i] = v
				}
			}
		}
		*bp = buf
		mergePool.Put(bp)
	} else {
		// Wide query: chunk the routed reports over the worker pool. Max is
		// commutative and exact on non-negative floats, so the fold order
		// cannot change the result — answers are deterministic at any width.
		chunks := parallel.Workers()
		if chunks > len(routed) {
			chunks = len(routed)
		}
		per := (len(routed) + chunks - 1) / chunks
		parts := make([][]float64, chunks)
		parallel.ForEach(chunks, func(ci int) {
			lo := ci * per
			hi := min(lo+per, len(routed))
			part := make([]float64, len(out))
			bp := mergePool.Get().(*[]float64)
			buf := *bp
			for _, q := range routed[lo:hi] {
				buf = q.QueryRangeInto(buf[:0], f, from, to)
				for i, v := range buf {
					if v > part[i] {
						part[i] = v
					}
				}
			}
			*bp = buf
			mergePool.Put(bp)
			parts[ci] = part
		})
		for _, part := range parts {
			for i, v := range part {
				if v > out[i] {
					out[i] = v
				}
			}
		}
	}
	for i := range routed {
		routed[i] = nil // don't pin evicted reports through the pool
	}
	*rp = routed[:0]
	routedPool.Put(rp)
	return out
}

// queryFlowScan is the pre-routing linear scan — every resident report
// probed with MightSee, positives queried and max-merged. Kept as the
// property-test oracle (routed answers must equal it exactly) and as the
// benchmark baseline the routing speedup is measured against.
func (s *Snapshot) queryFlowScan(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	for _, ei := range s.eps {
		for _, q := range ei.qs {
			if !q.MightSee(f) {
				continue
			}
			for i, v := range q.QueryRange(f, from, to) {
				if v > out[i] {
					out[i] = v
				}
			}
		}
	}
	return out
}

// Replay queries every flow of an emitted event over the event span plus
// margin, fanning out over the worker pool. All per-flow queries read this
// one snapshot, so the view is internally consistent even while ingest
// keeps publishing successors.
func (s *Snapshot) Replay(ev analyzer.Event, marginNs int64) *analyzer.ReplayView {
	from := measure.WindowOf(ev.StartNs-marginNs) - 1
	if from < 0 {
		from = 0
	}
	to := measure.WindowOf(ev.EndNs+marginNs) + 2
	view := &analyzer.ReplayView{
		Event:       ev,
		WindowStart: from,
		Windows:     int(to - from),
		Curves:      make(map[flowkey.Key][]float64, len(ev.Flows)),
	}
	curves := make([][]float64, len(ev.Flows))
	parallel.ForEach(len(ev.Flows), func(i int) {
		curves[i] = s.QueryFlow(ev.Flows[i], from, to)
	})
	for i, f := range ev.Flows {
		view.Curves[f] = curves[i]
	}
	return view
}
