package collect

// Epoch-lifecycle tracing: every (host, epoch) report admitted to the
// window carries four wall-clock stamps — seal (host started sealing the
// sketch), ship (the sink framed it onto the wire), admit (the collector
// put it in the window), detect (the first online detection pass emitted
// an event overlapping the epoch). The stamps decompose the collector's
// single end-to-end detection-lag number into per-stage latencies a
// deployment can act on: a fat seal→ship says the host sealer is slow, a
// fat ship→admit says the transport or the collector's ingest loop is
// backed up, a fat admit→detect says the watermark (mirror feed) is
// lagging the report feed.
//
// Records live in a bounded ring (traceCap records): a long-lived
// daemon keeps the recent lifecycle history queryable over /api/trace/...
// at O(1) memory, the same discipline as the epoch window itself.

import "umon/internal/report"

// EpochTrace is the lifecycle record of one (host, epoch) report. Stamps
// are wall-clock unix nanoseconds; 0 means the stage was never observed
// (e.g. an unstamped legacy stream has no seal/ship, an epoch whose span
// never overlapped an emitted event has no detect).
type EpochTrace struct {
	Host  int    `json:"host"`
	Epoch uint64 `json:"epoch"`

	SealNs   int64 `json:"seal_unix_ns,omitempty"`
	ShipNs   int64 `json:"ship_unix_ns,omitempty"`
	AdmitNs  int64 `json:"admit_unix_ns"`
	DetectNs int64 `json:"detect_unix_ns,omitempty"`
}

type traceKey struct {
	host  int
	epoch uint64
}

// traceRing is a fixed-capacity overwrite-oldest ring of EpochTraces with
// a (host, epoch) index for stamp backfill. Guarded by the owning
// Collector's traceMu: readers (Traces, Status) run concurrently with the
// serialized mutators.
type traceRing struct {
	buf []EpochTrace
	seq int              // total records ever admitted
	idx map[traceKey]int // (host, epoch) -> absolute seq of its slot
	// pending[e] holds the slots of exactly the live records of epoch e
	// with DetectNs == 0, so a detection pass visits the records it stamps
	// and no others (the ring is scanned once per emitted event otherwise).
	pending map[uint64][]int
}

func newTraceRing(capacity int) *traceRing {
	return &traceRing{
		buf:     make([]EpochTrace, 0, capacity),
		idx:     make(map[traceKey]int),
		pending: make(map[uint64][]int),
	}
}

// add records a new trace (no detect stamp yet), overwriting the oldest
// once full, and returns a pointer valid until the next add.
func (r *traceRing) add(tr EpochTrace) *EpochTrace {
	k := traceKey{tr.Host, tr.Epoch}
	if seq, ok := r.idx[k]; ok {
		// Re-admission of the same (host, epoch) — e.g. a re-shipped report
		// after a transport retry — refreshes the record in place.
		slot := seq % cap(r.buf)
		if r.buf[slot].DetectNs != 0 {
			r.pending[tr.Epoch] = append(r.pending[tr.Epoch], slot)
		}
		r.buf[slot] = tr
		return &r.buf[slot]
	}
	slot := len(r.buf)
	if slot < cap(r.buf) {
		r.buf = append(r.buf, tr)
	} else {
		slot = r.seq % cap(r.buf)
		old := &r.buf[slot]
		delete(r.idx, traceKey{old.Host, old.Epoch})
		if old.DetectNs == 0 {
			r.unpend(old.Epoch, slot)
		}
		*old = tr
	}
	r.pending[tr.Epoch] = append(r.pending[tr.Epoch], slot)
	r.idx[k] = r.seq
	r.seq++
	return &r.buf[slot]
}

// unpend drops slot from epoch's pending list.
func (r *traceRing) unpend(epoch uint64, slot int) {
	list := r.pending[epoch]
	for i, s := range list {
		if s == slot {
			list[i] = list[len(list)-1]
			list = list[:len(list)-1]
			break
		}
	}
	if r.pending[epoch] = list; len(list) == 0 {
		delete(r.pending, epoch)
	}
}

// lookup returns the live record for (host, epoch), or nil if it was
// never traced or already overwritten.
func (r *traceRing) lookup(host int, epoch uint64) *EpochTrace {
	seq, ok := r.idx[traceKey{host, epoch}]
	if !ok {
		return nil
	}
	return &r.buf[seq%cap(r.buf)]
}

// snapshot copies the ring oldest-first.
func (r *traceRing) snapshot() []EpochTrace {
	if len(r.buf) < cap(r.buf) {
		return append([]EpochTrace(nil), r.buf...)
	}
	out := make([]EpochTrace, 0, len(r.buf))
	start := r.seq % cap(r.buf)
	out = append(out, r.buf[start:]...)
	return append(out, r.buf[:start]...)
}

// noteAdmit opens the lifecycle record at admission, folding in any
// pending seal/ship stamp, and observes the report-pipeline stage
// latencies that are complete at this point.
func (c *Collector) noteAdmit(host int, epoch uint64, st report.EpochStamp, admitNs int64) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	tr := c.traces.add(EpochTrace{
		Host: host, Epoch: epoch,
		SealNs: st.SealNs, ShipNs: st.ShipNs, AdmitNs: admitNs,
	})
	c.observeStamped(tr)
}

// noteStamp backfills seal/ship stamps that arrive after their report
// frame (the StreamSink writes report first, stamp second).
func (c *Collector) noteStamp(host int, epoch uint64, st report.EpochStamp) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	tr := c.traces.lookup(host, epoch)
	if tr == nil || tr.SealNs != 0 || tr.ShipNs != 0 {
		return // report lost, evicted from the ring, or already stamped
	}
	tr.SealNs, tr.ShipNs = st.SealNs, st.ShipNs
	c.observeStamped(tr)
}

// observeStamped records the stage latencies available once seal/ship
// stamps and the admit stamp are both known.
func (c *Collector) observeStamped(tr *EpochTrace) {
	if tr.SealNs == 0 || tr.ShipNs == 0 {
		return
	}
	c.stats.SealShipNs.Observe(tr.ShipNs - tr.SealNs)
	c.stats.ShipAdmitNs.Observe(tr.AdmitNs - tr.ShipNs)
}

// noteDetect stamps every still-undetected trace whose epoch span overlaps
// an event emitted by this detection pass, and observes the tail stages.
func (c *Collector) noteDetect(startNs, endNs int64, detectNs int64) {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	e0 := epochOf(startNs, c.cfg.EpochNs)
	e1 := epochOf(endNs, c.cfg.EpochNs)
	pending := c.traces.pending
	stamp := func(e uint64) {
		for _, slot := range pending[e] {
			tr := &c.traces.buf[slot]
			tr.DetectNs = detectNs
			c.stats.AdmitDetectNs.Observe(detectNs - tr.AdmitNs)
			if tr.SealNs != 0 {
				c.stats.SealDetectNs.Observe(detectNs - tr.SealNs)
			}
		}
		if detectNs != 0 { // a zero stamp leaves the records undetected
			delete(pending, e)
		}
	}
	// The second loop alone is correct. Walking the span instead costs 65 ns
	// against 2.5 µs per event with 256 epochs pending, and the bench's
	// stream-mice run keeps 177 pending on average (1.6 % of a lap). Event
	// times come off the wire, so the span is walked only when it is the
	// shorter of the two.
	if e1-e0 < uint64(len(pending)) {
		for e := e0; e <= e1; e++ {
			stamp(e)
		}
		return
	}
	for e := range pending {
		if e0 <= e && e <= e1 {
			stamp(e)
		}
	}
}

// epochOf maps a simulation timestamp to its measurement epoch.
func epochOf(ns, epochNs int64) uint64 {
	if ns < 0 {
		return 0
	}
	return uint64(ns / epochNs)
}

// Traces returns the lifecycle ring, oldest record first. Safe to call
// concurrently with ingest.
func (c *Collector) Traces() []EpochTrace {
	c.traceMu.Lock()
	defer c.traceMu.Unlock()
	return c.traces.snapshot()
}
