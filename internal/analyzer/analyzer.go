// Package analyzer implements the µMon analyzer's event half (§6): it
// clusters the mirrored event packets from switches into congestion events,
// and builds an event's replay — the rate curves of its flows around the
// event window, the Figure 10 workflow — from any flow-rate query.
//
// Mirrors fold into per-port events as they arrive. The batch reader,
// DetectEvents, snapshots every event, open ones included, and leaves the
// state alone; the online reader, PopClosed, takes only the events a
// watermark proves closed and releases them with their records: one
// comparison per active port plus the events returned. Emptied port state
// is recycled, so steady-state ingest does not allocate.
//
// The collector (internal/collect) holds the reports and events of every
// production caller, and its Analyzer is only its mirror clusterer
// (AddMirror, PopClosed). The batch Analyzer — AddReport and QueryFlow over
// one report.RoutedSet, DetectEvents over every mirror — is the reference
// that tests and the benchmark hold the collector to.
package analyzer

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/uevent"
)

// Event is a congestion event reconstructed from mirrored packets: a
// cluster of CE observations on one switch port.
type Event struct {
	Port    netsim.PortID
	StartNs int64
	EndNs   int64
	Packets int
	Bytes   int64
	// Flows lists the distinct flows seen in the cluster, most packets
	// first.
	Flows []flowkey.Key
}

// DurationNs returns the event span.
func (e *Event) DurationNs() int64 { return e.EndNs - e.StartNs }

func (e *Event) String() string {
	return fmt.Sprintf("event sw%d/p%d [%d..%d]ns %d pkts %d flows",
		e.Port.Switch, e.Port.Port, e.StartNs, e.EndNs, e.Packets, len(e.Flows))
}

// Analyzer clusters mirrors into events and, as the batch reference, holds
// reports.
type Analyzer struct {
	// reports holds every ingested report behind the flow→report routing
	// index, extended on AddReport — ingest everything first, then query.
	reports *report.RoutedSet
	// clusters folds the mirror stream into per-port events as it arrives
	// and holds the ports with a record; free holds the emptied clusterers
	// the next port to become active takes, recs the unused record chunks.
	// hot is a direct-mapped cache in front of clusters: a mirror of a port
	// whose slot no other active port claimed since is looked up unhashed.
	clusters map[netsim.PortID]*portClusterer
	hot      [256]*portClusterer
	free     []*portClusterer
	recs     recPool
	// gapNs is the clustering gap the incremental state was built under.
	gapNs int64
}

// New returns an empty analyzer clustering under the default gap.
func New() *Analyzer { return NewWithGap(0) }

// NewWithGap returns an empty analyzer that clusters mirrors under gapNs
// (≤ 0: the default) from the first record on.
func NewWithGap(gapNs int64) *Analyzer {
	if gapNs <= 0 {
		gapNs = defaultGapNs
	}
	return &Analyzer{
		reports:  &report.RoutedSet{},
		clusters: make(map[netsim.PortID]*portClusterer),
		gapNs:    gapNs,
	}
}

// AddReport ingests one host's decoded WaveSketch report and folds it into
// the flow→report routing index. It refuses a report NewQueryable refuses
// or whose sketch is not the one of the reports before it.
func (a *Analyzer) AddReport(r *report.HostReport) error {
	q, err := report.NewQueryable(r)
	if err != nil {
		return err
	}
	s, err := a.reports.Extend(q)
	if err != nil {
		return err
	}
	a.reports = s
	return nil
}

// AddMirror ingests one mirror record, folding it into the per-port event
// clusters.
func (a *Analyzer) AddMirror(m uevent.MirrorRecord) {
	slot := &a.hot[hotSlot(m.Port)]
	p := *slot
	if p == nil || p.port != m.Port {
		if p = a.clusters[m.Port]; p == nil {
			if n := len(a.free); n > 0 {
				p, a.free = a.free[n-1], a.free[:n-1]
			} else {
				p = &portClusterer{pool: &a.recs}
			}
			p.port = m.Port
			a.clusters[m.Port] = p
		}
		*slot = p
	}
	p.add(&m, a.gapNs)
}

// AddMirrorPacket parses one on-the-wire mirrored packet (VLAN-tagged,
// timestamp-trailed) and ingests it. The decode is an in-place view — b
// is not retained, so callers may hand in pooled buffers (pcap batch
// views) and recycle them after the call returns.
func (a *Analyzer) AddMirrorPacket(b []byte) error {
	m, err := uevent.DecodeMirrorPacket(b)
	if err != nil {
		return err
	}
	a.AddMirror(m)
	return nil
}

// DetectEvents returns the per-port mirror clusters: observations separated
// by less than gapNs belong to one event. Typical gapNs is a few tens of
// microseconds — queues drain within that once marking stops. Clustering is
// incremental: mirrors that arrived in timestamp order are already folded
// into events, so this call only seals a snapshot and sorts the (far
// smaller) event list. Passing a different gap than the one the state was
// built under rebuilds the per-port state under the new gap.
func (a *Analyzer) DetectEvents(gapNs int64) []Event {
	if gapNs <= 0 {
		gapNs = defaultGapNs
	}
	if gapNs != a.gapNs {
		a.gapNs = gapNs
		for _, p := range a.clusters {
			p.rebuild(gapNs)
		}
	}
	var events []Event
	for _, p := range a.clusters {
		events = p.events(events, a.gapNs)
	}
	SortEvents(events)
	return events
}

// PopClosed is the online counterpart of DetectEvents: it seals every open
// event that ended at or before closedBelow — the caller's proof that no
// mirror can extend it — appends the closed events to dst in DetectEvents'
// order, and releases them and their mirror records. Callers drop later
// mirrors at or below the cut (the collector's late-mirror filter).
func (a *Analyzer) PopClosed(dst []Event, closedBelow int64) []Event {
	base := len(dst)
	for port, p := range a.clusters {
		dst = p.popClosed(dst, closedBelow, a.gapNs)
		if p.recs.n == 0 { // and so no event: the state can serve another port
			delete(a.clusters, port)
			a.free = append(a.free, p)
			if slot := &a.hot[hotSlot(port)]; *slot == p {
				*slot = nil
			}
		}
	}
	SortEvents(dst[base:])
	return dst
}

// hotSlot spreads 32 switches of 8 ports over distinct slots of Analyzer.hot.
func hotSlot(p netsim.PortID) uint8 { return uint8(p.Switch)<<3 ^ uint8(p.Port) }

// SortEvents orders events by (StartNs, switch, port), the one order every
// event list is read in. One port's events never share a start, so the
// order is total.
func SortEvents(events []Event) {
	slices.SortFunc(events, func(a, b Event) int {
		return cmp.Or(cmp.Compare(a.StartNs, b.StartNs),
			cmp.Compare(a.Port.Switch, b.Port.Switch), cmp.Compare(a.Port.Port, b.Port.Port))
	})
}

// QueryFlow estimates flow f's per-window byte counts over [from, to)
// windows by max-merging the host reports the routing index selects (see
// report.RoutedSet): the cost scales with the flow's footprint, not the
// deployment size.
func (a *Analyzer) QueryFlow(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	fq := report.NewFlowQuery(f, from, to)
	a.reports.MergeFlow(out, fq)
	fq.Release()
	return out
}

// ReplayView is the Figure 10c artifact: the rate curves of an event's
// flows around the event occurrence.
type ReplayView struct {
	Event       Event
	WindowStart int64 // absolute window id of Curves[.][0]
	Windows     int
	// Curves maps each event flow to its per-window byte counts.
	Curves map[flowkey.Key][]float64
}

// ReplayWith builds the replay view of ev from any flow-rate query (a
// collector snapshot's, or the batch analyzer's QueryFlow): every flow of
// the event over its span ± marginNs (§6.1: "the rate of several windows
// before and after the event can be queried"), one flow after the other on
// the caller's goroutine. A replay costs microseconds, and spreading its
// flows over worker goroutines made it slower, not faster: in one traced
// benchmark run per workload (2-core Xeon, GOMAXPROCS 2, seed 42) the
// serial loop took replay p50/p99 from 1.76/24.7 to 1.22/14.8 µs on
// stream-mice and from 6.85/64.9 to 3.98/52.7 µs on fleet-elephants.
func ReplayWith(ev Event, marginNs int64, query func(f flowkey.Key, from, to int64) []float64) *ReplayView {
	from := measure.WindowOf(ev.StartNs-marginNs) - 1
	if from < 0 {
		from = 0
	}
	to := measure.WindowOf(ev.EndNs+marginNs) + 2
	view := &ReplayView{
		Event:       ev,
		WindowStart: from,
		Windows:     int(to - from),
		Curves:      make(map[flowkey.Key][]float64, len(ev.Flows)),
	}
	for _, f := range ev.Flows {
		view.Curves[f] = query(f, from, to)
	}
	return view
}

// RateGbps converts per-window byte counts into Gbps at the default
// 8.192 µs window.
func RateGbps(bytesPerWindow float64) float64 {
	return bytesPerWindow * 8 / float64(measure.WindowNanos)
}

// DurationStats summarizes event durations (Figure 10b's CDF).
type DurationStats struct {
	Count     int
	P50Ns     int64
	P90Ns     int64
	P99Ns     int64
	MaxNs     int64
	Durations []int64 // ascending
}

// Durations computes the event-duration distribution.
func Durations(events []Event) DurationStats {
	ds := make([]int64, 0, len(events))
	for i := range events {
		ds = append(ds, events[i].DurationNs())
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	st := DurationStats{Count: len(ds), Durations: ds}
	if len(ds) == 0 {
		return st
	}
	at := func(q float64) int64 {
		i := int(q * float64(len(ds)-1))
		return ds[i]
	}
	st.P50Ns, st.P90Ns, st.P99Ns = at(0.50), at(0.90), at(0.99)
	st.MaxNs = ds[len(ds)-1]
	return st
}

// LocationPoint is one mark of the Figure 10a time-location map.
type LocationPoint struct {
	TimeNs int64
	LinkID int // dense id per (switch, port)
}

// LocationMap flattens events into plottable (time, link) points and
// returns the link-id legend.
func LocationMap(events []Event) ([]LocationPoint, map[int]netsim.PortID) {
	ids := make(map[netsim.PortID]int)
	legend := make(map[int]netsim.PortID)
	var pts []LocationPoint
	for i := range events {
		p := events[i].Port
		id, ok := ids[p]
		if !ok {
			id = len(ids)
			ids[p] = id
			legend[id] = p
		}
		pts = append(pts, LocationPoint{TimeNs: events[i].StartNs, LinkID: id})
	}
	return pts, legend
}
