// Package collect implements the long-lived collector of the streaming
// deployment: it continuously ingests the epoch-rotated report streams
// hosts ship and the mirrored µEvent packets switches emit, holds a
// bounded sliding window of queryable epochs, and detects congestion
// events online — emitting each event once, as soon as the mirror
// watermark proves it can no longer grow, with a measured detection lag
// and at a cost that does not depend on how many events are still open.
//
// It is the one store of reports and events: the daemon, the benchmark and
// the in-process deployment (core.Deploy, with an unbounded window) all hold
// them here. The analyzer package is its mirror clusterer, and the batch
// reference that tests hold it to.
//
// Concurrency model: the mutators Add*, Stamp, Poll and Drain are
// single-writer and take no lock — one owner goroutine calls them, as the
// packet→answer benchmark does. The two feed loops, IngestStream and
// IngestMirrorPcap, may run concurrently with each other (one of each is the
// daemon's shape): each takes the collector's ingest mutex around the
// mutators it calls, per frame and per batch, and never across a read of its
// input. A caller that mixes a feed loop with direct mutator calls owns that
// serialization. Every read — QueryFlow, Replay, Events, Window, Status,
// Traces, Snapshot — is lock-free and safe to call from any number of
// goroutines concurrently with ingest: mutators publish an immutable window
// Snapshot through an atomic pointer and readers load it, so a slow query
// can never stall admission and query throughput scales across cores (see
// snapshot.go).
package collect

import (
	"errors"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/mbuf"
	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/uevent"
)

// pollEvery bounds how many mirrors fold in between online detection
// passes: small enough that detection lag stays near the clustering gap,
// large enough that a pass's walk over the active ports amortizes.
const pollEvery = 256

// Config parameterizes a Collector. The zero value is usable: an
// unbounded window, the default clustering gap, no decode budget, no
// telemetry, no online event callback.
type Config struct {
	// WindowEpochs bounds how many distinct epochs stay resident; admitting
	// a newer epoch past the bound evicts the oldest. 0 means unbounded.
	WindowEpochs int
	// EpochNs is the measurement period hosts seal at (paper: 20 ms). It
	// converts between epochs and times: in summaries, and to stamp the
	// traces of the epochs a detected event spans. Ingest trusts the epoch
	// numbers on the frames.
	EpochNs int64
	// GapNs is the event clustering gap (default 50 µs).
	GapNs int64
	// DecodeBudget caps decoded curves per resident Queryable (0 =
	// unlimited); composes with window eviction to bound total memory.
	DecodeBudget int
	// OnEvent, when set, receives each congestion event as it closes. It
	// runs after the snapshot that holds the event is published, so a
	// reader it wakes finds the event in Snapshot().EventLog().
	OnEvent func(analyzer.Event)
	// Stats is optional collector telemetry.
	Stats *Stats
	// Now is the wall clock used for admit/detect lifecycle stamps (unix
	// ns); nil means time.Now. Tests inject a fake clock here.
	Now func() int64
}

// traceCap bounds the epoch-lifecycle trace ring (records kept for
// /api/trace/epochs).
const traceCap = 4096

// EventLogCap bounds the emission log: Events and Snapshot.EventLog cover
// the newest EventLogCap events.
const EventLogCap = 1 << 16

// Collector is the long-lived analysis daemon state.
type Collector struct {
	cfg   Config
	an    *analyzer.Analyzer
	stats Stats

	// ingestMu serializes the mutator calls of the feed loops (IngestStream,
	// IngestMirrorPcap) with each other.
	ingestMu sync.Mutex

	// snap is the published window: readers Load it, mutators build a
	// successor and Store it. version is the mutator-owned publication
	// counter behind Status.SnapshotVersion.
	snap    atomic.Pointer[Snapshot]
	version int64

	// wm is the max mirror timestamp folded, folded the mirrors note has yet
	// to publish with it; below trimNs a mirror is late (its event emitted).
	wm, folded int64
	watermark  atomic.Int64
	trimNs     int64
	sincePoll  int
	closed     []analyzer.Event // Poll's scratch: the events one pass pops
	// events is the mutator-owned emission log and emitted the count of
	// events ever logged. The log's array is only ever appended to, and each
	// published Snapshot holds a header into it, so readers see a stable
	// stretch without copying.
	events   []analyzer.Event
	emitted  int
	eventCap int // EventLogCap; a field so that a test can shrink it

	// traces is the bounded epoch-lifecycle ring, guarded by traceMu since
	// Traces/Status read concurrently with ingest; now is the wall clock
	// stamping admit/detect.
	traceMu sync.Mutex
	traces  *traceRing
	now     func() int64

	// Plain ingest accounting (telemetry-independent, for Status).
	reportsIn atomic.Int64
	mirrorsIn atomic.Int64
	// Routing selectivity: reports visited vs skipped by the routing index
	// across all queries, including queries against held snapshots.
	routeVisited atomic.Int64
	routeSkipped atomic.Int64
}

// New builds a collector.
func New(cfg Config) *Collector {
	if cfg.EpochNs <= 0 {
		cfg.EpochNs = 20_000_000
	}
	if cfg.GapNs <= 0 {
		cfg.GapNs = 50_000
	}
	c := &Collector{
		cfg:      cfg,
		an:       analyzer.NewWithGap(cfg.GapNs),
		now:      cfg.Now,
		eventCap: EventLogCap,
		wm:       math.MinInt64,
		traces:   newTraceRing(traceCap),
	}
	c.watermark.Store(c.wm)
	if c.now == nil {
		c.now = func() int64 { return time.Now().UnixNano() }
	}
	if cfg.Stats != nil {
		c.stats = *cfg.Stats
	}
	// Publish the empty window so readers never see a nil snapshot. The
	// initial version is 0 with no wall stamp; the first mutation publishes
	// version 1.
	s0 := &Snapshot{visited: &c.routeVisited, skipped: &c.routeSkipped, stats: c.stats}
	c.snap.Store(s0)
	return c
}

// publish stamps and stores ns, with the retained events, as the live
// snapshot. Mutator-only; nowNs is the wall stamp already taken by the
// mutation (admit or detect), so publication adds no extra clock reads.
func (c *Collector) publish(ns *Snapshot, nowNs int64) {
	c.version++
	ns.version = c.version
	ns.publishNs = nowNs
	// Capped at its length: a reader that appends copies, never writing into
	// the log's array past what it was handed.
	ns.events = c.events[max(0, len(c.events)-c.eventCap):len(c.events):len(c.events)]
	ns.emitted = c.emitted
	ns.visited = &c.routeVisited
	ns.skipped = &c.routeSkipped
	ns.stats = c.stats
	c.stats.SnapshotVersion.Set(ns.version)
	c.stats.SnapshotPublishNs.Set(ns.publishNs)
	c.snap.Store(ns)
}

// Snapshot returns the current published window view. The caller may hold
// it for as long as it likes: its answers stay fixed while ingest keeps
// publishing successors.
func (c *Collector) Snapshot() *Snapshot { return c.snap.Load() }

// Add admits one decoded host report into the (host, epoch) window,
// evicting the oldest epoch if the window is over budget. Reports for
// already-evicted epochs are dropped and counted. A report NewQueryable
// refuses, or whose sketch is not the one of its epoch's reports, is
// refused with an error before anything is published.
func (c *Collector) Add(epoch uint64, rep *report.HostReport) error {
	return c.AddStamped(epoch, rep, report.EpochStamp{})
}

// AddStamped admits one decoded host report carrying its seal/ship
// lifecycle stamp (zero stamp = unstamped legacy input), or refuses it as
// Add does.
func (c *Collector) AddStamped(epoch uint64, rep *report.HostReport, st report.EpochStamp) error {
	cur := c.snap.Load()
	if epoch < cur.floor {
		c.stats.LateReports.Inc()
		return nil
	}
	q, err := report.NewQueryable(rep)
	if err != nil {
		return err
	}
	q.SetStats(c.stats.Decode)
	if c.cfg.DecodeBudget > 0 {
		q.SetDecodeBudget(c.cfg.DecodeBudget)
	}
	// The successor has fresh spine slices and a successor of the touched
	// epoch's index; every other epochIndex is shared with the outgoing
	// snapshot, which keeps serving its readers the answers it had.
	ns := &Snapshot{
		floor:    cur.floor,
		resident: cur.resident,
		epochs:   append([]uint64(nil), cur.epochs...),
		eps:      append([]*epochIndex(nil), cur.eps...),
	}
	i := sort.Search(len(ns.epochs), func(i int) bool { return ns.epochs[i] >= epoch })
	if i < len(ns.epochs) && ns.epochs[i] == epoch {
		ei, added, err := ns.eps[i].withReport(rep.Host, q)
		if err != nil {
			return err
		}
		ns.eps[i] = ei
		if added {
			ns.resident++
		}
	} else {
		ei, _, err := (&epochIndex{epoch: epoch, set: &report.RoutedSet{}}).withReport(rep.Host, q)
		if err != nil {
			return err
		}
		ns.epochs = slices.Insert(ns.epochs, i, epoch)
		ns.eps = slices.Insert(ns.eps, i, ei)
		ns.resident++
		c.stats.EpochsIngested.Inc()
	}
	c.reportsIn.Add(1)
	c.stats.ReportsIngested.Inc()
	admitNs := c.now()
	c.noteAdmit(rep.Host, epoch, st, admitNs)
	for c.cfg.WindowEpochs > 0 && len(ns.epochs) > c.cfg.WindowEpochs {
		c.evictOldest(ns)
	}
	c.stats.WindowResident.Set(int64(ns.resident))
	c.publish(ns, admitNs)
	return nil
}

// AddEncoded decodes one framed report payload and admits it.
func (c *Collector) AddEncoded(epoch uint64, payload []byte) error {
	rep, err := report.DecodeBytes(payload)
	if err != nil {
		return err
	}
	return c.Add(epoch, rep)
}

// Stamp backfills the seal/ship lifecycle stamp of an already-admitted
// (host, epoch) report — the path for stream feeds, where the stamp frame
// trails the report frame it describes.
func (c *Collector) Stamp(host int, epoch uint64, st report.EpochStamp) {
	c.noteStamp(host, epoch, st)
}

// evictOldest drops the oldest epoch from the not-yet-published successor
// snapshot. Admit and evict land in one publication, so readers never see
// an over-budget window.
func (c *Collector) evictOldest(ns *Snapshot) {
	oldest := ns.epochs[0]
	n := ns.eps[0].set.Len()
	ns.eps[0] = nil // release before re-slicing: don't pin the evicted index
	ns.epochs = ns.epochs[1:]
	ns.eps = ns.eps[1:]
	ns.resident -= n
	c.stats.Evictions.Add(int64(n))
	ns.floor = oldest + 1
}

// IngestStream drains one epoch-rotated report stream into the window,
// returning the number of reports admitted and of frames skipped as bad:
// undecodable, or damaged (a CRC mismatch leaves the reader framed at the
// next frame, so one flipped byte costs one frame, not the feed). It reads
// to EOF — for a growing file, hand it a reader that blocks at the end until
// more arrives — and takes the ingest mutex per frame, so it may run beside
// IngestMirrorPcap.
func (c *Collector) IngestStream(r io.Reader) (reports, bad int, err error) {
	sr, err := report.NewStreamReader(r)
	if err != nil {
		return 0, 0, err
	}
	var fr report.Frame
	for {
		err := sr.Next(&fr)
		if err == io.EOF {
			return reports, bad + sr.CRCErrors(), nil
		}
		if errors.Is(err, report.ErrCRC) {
			continue // counted by sr.CRCErrors
		}
		if err != nil {
			return reports, bad + sr.CRCErrors(), err
		}
		c.ingestMu.Lock()
		switch fr.Type {
		case report.FrameStamp:
			if st, err := fr.Stamp(); err != nil {
				bad++
			} else {
				c.Stamp(fr.Host, fr.Epoch, st)
			}
		case report.FrameReport:
			if err := c.AddEncoded(fr.Epoch, fr.Payload); err != nil {
				bad++
			} else {
				reports++
			}
		}
		c.ingestMu.Unlock()
	}
}

// AddMirrorPacket parses one on-the-wire mirrored packet and folds it into
// the online event clusters, advancing the mirror watermark. Mirrors below
// the trim horizon — their events were already emitted and released — are
// dropped and counted, keeping daemon memory bounded under replayed or
// disordered feeds.
func (c *Collector) AddMirrorPacket(b []byte) error {
	m, err := uevent.DecodeMirrorPacket(b)
	if err != nil {
		return err
	}
	c.AddMirror(m)
	return nil
}

// AddMirror folds one decoded mirror record.
func (c *Collector) AddMirror(m uevent.MirrorRecord) {
	c.fold(m)
	c.note()
}

// AddMirrorPackets folds a batch of on-the-wire mirrors as AddMirrorPacket
// would one by one, but counts them and publishes the watermark once per
// batch and Poll. Returns the packets parsed and those that failed to parse.
func (c *Collector) AddMirrorPackets(pkts []pcapio.Packet) (ingested, bad int) {
	for _, p := range pkts {
		m, err := uevent.DecodeMirrorPacket(p.Data)
		if err != nil {
			bad++
			continue
		}
		ingested++
		c.fold(m)
	}
	c.note()
	return ingested, bad
}

// fold drops m if it lies below the trim horizon and folds it otherwise,
// with a Poll every pollEvery mirrors. The ingest counters and the
// published watermark wait for note.
func (c *Collector) fold(m uevent.MirrorRecord) {
	if m.TimestampNs < c.trimNs {
		c.stats.LateMirrors.Inc()
		return
	}
	c.an.AddMirror(m)
	c.folded++
	c.wm = max(c.wm, m.TimestampNs)
	if c.sincePoll++; c.sincePoll >= pollEvery {
		c.Poll()
	}
}

// note makes the mirrors folded since the last call visible to readers.
func (c *Collector) note() {
	if c.folded > 0 {
		c.mirrorsIn.Add(c.folded)
		c.stats.MirrorsIngested.Add(c.folded)
		c.watermark.Store(c.wm)
		c.folded = 0
	}
}

// IngestMirrorPcap streams a pcap of mirrored packets through batch reads
// over one read-ahead block taken from pool (nil: the shared default
// pool): each packet is decoded in place in the block and folded, and
// each batch is finished — ending with a detection pass if mirrors folded
// since the last one — before the next is read, which is all the batch
// views' lifetime allows. A batch is whatever the reader had whole, so
// over a tailed file events close as their bytes land. It takes the
// ingest mutex per batch, so it may run beside IngestStream. Returns
// packets folded and packets that failed to parse.
func (c *Collector) IngestMirrorPcap(r io.Reader, pool *mbuf.Pool) (ingested, bad int, err error) {
	rd, err := pcapio.NewReaderOpts(r, pcapio.ReaderOpts{Pool: pool})
	if err != nil {
		return 0, 0, err
	}
	defer rd.Close()
	var batch pcapio.Batch
	for {
		n, rerr := rd.ReadBatch(&batch, 0)
		c.ingestMu.Lock()
		in, b := c.AddMirrorPackets(batch.Pkts[:n])
		if c.sincePoll > 0 {
			c.Poll()
		}
		c.ingestMu.Unlock()
		ingested, bad = ingested+in, bad+b
		if rerr == io.EOF {
			return ingested, bad, nil
		}
		if rerr != nil {
			return ingested, bad, rerr
		}
	}
}

// Poll runs one online detection pass: every event the watermark proves
// closed (no mirror within the clustering gap can still extend it) is
// popped from the analyzer with its records and emitted — appended to
// Events and delivered to OnEvent — once, at one comparison per active port
// plus the events emitted. Ingest calls this automatically every few
// hundred mirrors; call it explicitly after a quiet ingest burst.
func (c *Collector) Poll() int {
	if c.wm == math.MinInt64 {
		return 0
	}
	return c.emitClosed(c.wm-c.cfg.GapNs, true)
}

// emitClosed pops and emits every event that ended at or before closedBelow.
// online says the cut came off the mirror watermark, so an event's distance
// from the watermark is a detection lag worth observing.
func (c *Collector) emitClosed(closedBelow int64, online bool) int {
	c.sincePoll = 0
	c.note()
	detectNs := c.now()
	c.closed = c.an.PopClosed(c.closed[:0], closedBelow)
	if len(c.closed) == 0 {
		return 0
	}
	for _, ev := range c.closed {
		c.logEvent(ev)
		c.stats.EventsEmitted.Inc()
		if online {
			c.stats.DetectLagNs.Observe(c.wm - ev.EndNs)
		}
		c.noteDetect(ev.StartNs, ev.EndNs, detectNs)
	}
	// A mirror at or below the cut could only resurrect an emitted event.
	c.trimNs = closedBelow + 1
	// Republish so lock-free readers see the newly emitted events. The
	// window spine is unchanged, so the successor shares it outright.
	cur := c.snap.Load()
	c.publish(&Snapshot{
		floor:    cur.floor,
		resident: cur.resident,
		epochs:   cur.epochs,
		eps:      cur.eps,
	}, detectNs)
	if c.cfg.OnEvent != nil {
		for _, ev := range c.closed {
			c.cfg.OnEvent(ev)
		}
	}
	return len(c.closed)
}

// logEvent appends ev to the emission log, which retains the newest
// EventLogCap events. Published snapshots read the log's array, so the
// log is trimmed by moving its tail to a fresh array, an eighth longer
// than the bound so that the move is paid once per EventLogCap/8 events.
func (c *Collector) logEvent(ev analyzer.Event) {
	if n := c.eventCap; len(c.events) >= n+n/8 {
		tail := make([]analyzer.Event, n-1, n+n/8)
		copy(tail, c.events[len(c.events)-(n-1):])
		c.events = tail
	}
	c.events = append(c.events, ev)
	c.emitted++
}

// Drain closes every still-open event (end of input: nothing can extend
// them) and returns the retained emitted events in analyzer.SortEvents
// order. After ingesting the same ordered feeds, Drain's result is
// identical to the batch pipeline's (up to EventLogCap events). The mirror
// watermark stays where the last mirror left it.
func (c *Collector) Drain() []analyzer.Event {
	c.emitClosed(math.MaxInt64-1, false) // the trim horizon is the cut plus one
	return c.Events()
}

// Events returns the retained events (the newest EventLogCap emitted so
// far) in analyzer.SortEvents order, lock-free from the published snapshot.
func (c *Collector) Events() []analyzer.Event {
	return c.snap.Load().Events()
}

// Window describes the resident window: admitted epochs (ascending) and
// total resident Queryables.
func (c *Collector) Window() (epochs []uint64, resident int) {
	return c.snap.Load().Window()
}

// HostWindow is one host's resident epochs, for Status.
type HostWindow struct {
	Host   int      `json:"host"`
	Epochs []uint64 `json:"epochs"`
}

// Status is a point-in-time snapshot of the collector's window and
// ingest progress — the /api/status answer.
type Status struct {
	// Configuration.
	WindowEpochs int   `json:"window_epochs"`
	EpochNs      int64 `json:"epoch_ns"`
	GapNs        int64 `json:"gap_ns"`
	DecodeBudget int   `json:"decode_budget"`

	// Window occupancy. WindowSpan is the range [lo, hi) of window ids the
	// resident curves cover — what a flow query can hit.
	Epochs          []uint64     `json:"epochs"`
	WindowSpan      [2]int64     `json:"window_span"`
	ResidentReports int          `json:"resident_reports"`
	ResidentCurves  int          `json:"resident_curves"`
	EvictionFloor   uint64       `json:"eviction_floor"`
	Hosts           []HostWindow `json:"hosts"`

	// Ingest progress.
	HasWatermark    bool  `json:"has_watermark"`
	WatermarkNs     int64 `json:"watermark_ns"`
	ReportsIngested int64 `json:"reports_ingested"`
	MirrorsIngested int64 `json:"mirrors_ingested"`
	EventsEmitted   int   `json:"events_emitted"`
	TracedEpochs    int   `json:"traced_epochs"`

	// Query plane: publication counter and wall stamp of the live snapshot
	// (version 0 = nothing ingested yet), and the routing index's
	// cumulative selectivity — reports visited vs skipped across queries.
	SnapshotVersion     int64 `json:"snapshot_version"`
	SnapshotPublishNs   int64 `json:"snapshot_publish_unix_ns"`
	ReportsRouted       int64 `json:"reports_routed"`
	ReportsRouteSkipped int64 `json:"reports_route_skipped"`
}

// Status snapshots the window, watermark and ingest counters. Lock-free
// and safe to call concurrently with ingest.
func (c *Collector) Status() Status {
	s := c.snap.Load()
	st := Status{
		WindowEpochs:        c.cfg.WindowEpochs,
		EpochNs:             c.cfg.EpochNs,
		GapNs:               c.cfg.GapNs,
		DecodeBudget:        c.cfg.DecodeBudget,
		Epochs:              append([]uint64{}, s.epochs...),
		ResidentReports:     s.resident,
		ResidentCurves:      s.ResidentCurves(),
		EvictionFloor:       s.floor,
		ReportsIngested:     c.reportsIn.Load(),
		MirrorsIngested:     c.mirrorsIn.Load(),
		EventsEmitted:       s.emitted,
		SnapshotVersion:     s.version,
		SnapshotPublishNs:   s.publishNs,
		ReportsRouted:       c.routeVisited.Load(),
		ReportsRouteSkipped: c.routeSkipped.Load(),
	}
	st.WindowSpan[0], st.WindowSpan[1] = s.Span()
	if wm := c.watermark.Load(); wm != math.MinInt64 {
		st.HasWatermark = true
		st.WatermarkNs = wm
	}
	c.traceMu.Lock()
	st.TracedEpochs = len(c.traces.buf)
	c.traceMu.Unlock()
	byHost := make(map[int][]uint64)
	for i, e := range s.epochs {
		for _, h := range s.eps[i].hosts {
			byHost[h] = append(byHost[h], e)
		}
	}
	st.Hosts = make([]HostWindow, 0, len(byHost))
	for h, es := range byHost {
		st.Hosts = append(st.Hosts, HostWindow{Host: h, Epochs: es})
	}
	sort.Slice(st.Hosts, func(i, j int) bool { return st.Hosts[i].Host < st.Hosts[j].Host })
	return st
}

// QueryFlow estimates flow f's per-window byte counts over [from, to)
// windows by max-merging the resident reports the routing index selects
// for the flow — the analyzer's query semantics over the sliding window,
// lock-free against ingest.
func (c *Collector) QueryFlow(f flowkey.Key, from, to int64) []float64 {
	return c.snap.Load().QueryFlow(f, from, to)
}

// Replay queries every flow of an emitted event over the event span plus
// margin — the daemon's counterpart of the batch analyzer's Replay. All
// per-flow queries read one snapshot, so the view is internally
// consistent even while ingest keeps running.
func (c *Collector) Replay(ev analyzer.Event, marginNs int64) *analyzer.ReplayView {
	return c.snap.Load().Replay(ev, marginNs)
}
