package report

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
)

// curveCache memoizes one wavelet reconstruction. Readers load the pointer
// lock-free; a nil pointer means not resident (never decoded, or evicted
// by the clock sweep when a decode budget is set). The hot bit is the
// clock algorithm's second-chance marker, set on every hit. Decodes are
// deterministic, so re-decoding after an eviction returns identical
// curves — residency is purely a memory/CPU trade.
type curveCache struct {
	curve atomic.Pointer[[]float64]
	hot   atomic.Bool
}

// bucketEntry is one light-part bucket with its curve's offset in the
// payload, the reconstructed curve and its slice of the inverted colocation
// index: the heavy entries whose keys hash into this bucket, in report
// order. Light queries subtract exactly these — no per-query scan over the
// full heavy set.
type bucketEntry struct {
	off            uint32
	colOff, colLen uint32 // q.coloc[colOff : colOff+colLen]
	cache          curveCache
}

// heavyEntry is one heavy-part entry with its curve's offset.
type heavyEntry struct {
	key   flowkey.Key
	off   uint32
	cache curveCache
}

// Queryable is a report indexed for flow-rate queries on the analyzer: the
// heavy entries answer directly; light queries hash into the reported
// buckets, subtract co-located heavy flows and take the Count-Min
// per-window minimum. A curve stays in the payload until a query first
// needs its samples. All indexes are built once at NewQueryable; after that
// the Queryable is safe for concurrent queries.
type Queryable struct {
	rep   *HostReport // a decoded report: header and payload
	seeds []uint64
	width flowkey.Reducer // hash → bucket index within a row
	// The light part is indexed by rank, with no hash table: rowBits holds one
	// bitmap of non-empty bucket indices per row (words words each), rank
	// the number of buckets before each bitmap word in (row, index) order,
	// and entries the buckets in that order — so bucket (r, idx), if its
	// bit is set, is entries[rank[word] + popcount(bits below idx)]. A flow
	// whose bucket is empty in any row has an identically-zero Count-Min
	// estimate, so the same bitmaps route queries past this report.
	words   int
	rowBits []uint64
	rank    []uint32
	entries []bucketEntry
	// heavy maps a flow to its entry in hentries (the last one, should a
	// report repeat a key); nil for a report without a heavy part.
	heavy    map[flowkey.Key]int32
	hentries []heavyEntry
	coloc    []int32 // colocation lists (hentries indices), sliced per bucketEntry
	// orphans are the heavy keys whose light bucket is missing in some row
	// (or that have no rows to hash into): their heavy entry alone answers
	// them, so the row bitmaps cannot route them. A sketch counts every
	// packet in its light part, so its reports have none.
	orphans []flowkey.Key
	// [lo, hi) is the hull of every indexed curve's windows [W0, W0+n);
	// lo > hi when the report carries no sample.
	lo, hi int64
	// stats is a value copy of the optional decode telemetry (zero value =
	// disabled; every handle nil-checks itself).
	stats QueryStats
	// Decode residency budget: with decodeBudget > 0 at most that many
	// reconstructed curves stay resident, evicted by a clock (second
	// chance) sweep over the curve slots: entries, then hentries. 0 keeps
	// every curve forever (the historical behaviour — but unbounded: a
	// long-lived analyzer querying many reports holds every curve it ever
	// decoded).
	decodeMu     sync.Mutex
	decodeBudget int
	decodeCount  int // resident curves; guarded by decodeMu
	clockHand    int
}

// SetStats attaches decode telemetry. Call before issuing queries; not
// safe to race with QueryRange.
func (q *Queryable) SetStats(s *QueryStats) {
	if s != nil {
		q.stats = *s
	}
}

// SetDecodeBudget bounds how many reconstructed curves stay resident at
// once (0 = unbounded). Call before issuing queries; not safe to race
// with QueryRange. Estimates are unaffected — an evicted curve is
// re-decoded on its next use and reconstruction is deterministic.
func (q *Queryable) SetDecodeBudget(n int) {
	q.decodeMu.Lock()
	q.decodeBudget = n
	q.decodeMu.Unlock()
}

// slot returns curve slot i of the clock rotation.
func (q *Queryable) slot(i int) *curveCache {
	if i < len(q.entries) {
		return &q.entries[i].cache
	}
	return &q.hentries[i-len(q.entries)].cache
}

// ResidentCurves reports how many reconstructed curves are currently
// resident. With a decode budget set this is exact (the clock sweep's
// count); unbounded Queryables count their slots directly.
func (q *Queryable) ResidentCurves() int {
	q.decodeMu.Lock()
	defer q.decodeMu.Unlock()
	if q.decodeBudget > 0 {
		return q.decodeCount
	}
	n := 0
	for i := 0; i < len(q.entries)+len(q.hentries); i++ {
		if q.slot(i).curve.Load() != nil {
			n++
		}
	}
	return n
}

// NewQueryable indexes a report in one walk over its payload; a report never
// encoded is encoded once first. Buckets outside the declared sketch shape
// can never be hashed to and are left out; of two buckets at one position
// the later wins (DecodeBytes admits neither).
func NewQueryable(r *HostReport) *Queryable {
	r = r.encoded()
	q := &Queryable{rep: r, width: flowkey.NewReducer(r.Meta.Width)}
	rows := r.Meta.Rows
	if rows < 0 || r.Meta.Width <= 0 {
		rows = 0 // no light part: every light estimate is zero
	}
	q.seeds = make([]uint64, rows)
	for i := range q.seeds {
		q.seeds[i] = flowkey.RowSeed(r.Meta.Seed, i)
	}
	q.words = (r.Meta.Width + 63) / 64
	q.rowBits = make([]uint64, rows*q.words)
	q.rank = make([]uint32, rows*q.words)
	q.lo, q.hi = math.MaxInt64, math.MinInt64
	d := decoder{b: r.wire, off: 4}
	var hdr [10]uint64
	d.uvarints(hdr[:])
	// Positions ascend: entries fill in rank order, rows are stepped through.
	q.entries = make([]bucketEntry, hdr[8])
	width := uint64(r.Meta.Width)
	row, rowStart, next := 0, uint64(0), uint64(0)
	for i := range q.entries {
		q.entries[i].off = d.next(bucketKeys)
		pos := next + d.f[0]
		for pos >= rowStart+width {
			row, rowStart = row+1, rowStart+width
		}
		idx := pos - rowStart
		q.rowBits[row*q.words+int(idx>>6)] |= 1 << (idx & 63)
		next = pos + 1
		q.cover(d.f[1:4])
	}
	n := 0
	for w, word := range q.rowBits {
		q.rank[w] = uint32(n)
		n += bits.OnesCount64(word)
	}
	if hdr[9] == 0 {
		return q
	}
	q.hentries = make([]heavyEntry, hdr[9])
	q.heavy = make(map[flowkey.Key]int32, len(q.hentries))
	keys := make([]flowkey.Key, 0, len(q.hentries)) // report order
	for i := range q.hentries {
		h := &q.hentries[i]
		h.off = d.next(heavyKeys)
		f := &d.f
		h.key = flowkey.Key{SrcIP: uint32(f[0]), DstIP: uint32(f[1]), SrcPort: uint16(f[2]), DstPort: uint16(f[3]), Proto: uint8(f[4])}
		q.cover(f[5:8])
		if _, dup := q.heavy[h.key]; !dup {
			keys = append(keys, h.key)
		}
		q.heavy[h.key] = int32(i)
	}
	// Inverted colocation index: for every heavy flow, mark the light
	// buckets it hashes into. Built once here — the per-query cost of a
	// light estimate does not depend on the heavy-set size. Two passes
	// over the (heavy flow, row) hits: count per bucket, then fill each
	// bucket's stretch of one flat array in report order. A key that misses
	// a bucket on the way is an orphan.
	hits := make([]*bucketEntry, 0, len(keys)*rows)
	for _, k := range keys {
		p := k.Pack()
		routed := rows > 0
		for r := range q.seeds {
			e := q.bucket(r, q.width.Index(p.Hash(q.seeds[r])))
			if e != nil {
				e.colLen++
			} else {
				routed = false
			}
			hits = append(hits, e)
		}
		if !routed {
			q.orphans = append(q.orphans, k)
		}
	}
	total := uint32(0)
	for i := range q.entries {
		e := &q.entries[i]
		e.colOff, e.colLen, total = total, 0, total+e.colLen
	}
	q.coloc = make([]int32, total)
	for i, e := range hits {
		if e != nil {
			q.coloc[e.colOff+e.colLen] = q.heavy[keys[i/rows]]
			e.colLen++
		}
	}
	return q
}

// bucket returns the entry of light bucket (r, idx), nil when the report
// has none there. r and idx must lie inside the sketch shape.
func (q *Queryable) bucket(r, idx int) *bucketEntry {
	w := r*q.words + idx>>6
	word, bit := q.rowBits[w], uint64(1)<<(idx&63)
	if word&bit == 0 {
		return nil
	}
	return &q.entries[int(q.rank[w])+bits.OnesCount64(word&(bit-1))]
}

// span is the windows [w0, w0+n) of a curve whose w0, len and |A| are h:
// n is len when positive, else the padded reconstruction's.
func (q *Queryable) span(h []uint64) (w0, n int64) {
	w0 = unzigzag(h[0]) + q.rep.PeriodStart
	if n = int64(h[1]); n <= 0 {
		n = int64(h[2]) << uint(q.rep.Meta.Levels)
	}
	return w0, n
}

// cover widens the report's span by the curve h heads.
func (q *Queryable) cover(h []uint64) {
	if w0, n := q.span(h); n > 0 {
		q.lo, q.hi = min(q.lo, w0), max(q.hi, w0+n)
	}
}

// overlaps reports whether windows [lo, hi) and the non-empty range
// [from, to) share a window.
func overlaps(lo, hi, from, to int64) bool { return lo < to && hi > from }

// meets returns the curve at off's w0, read in place, and whether it has a
// sample in [from, to). One that has none contributes exactly nothing to an
// estimate over the range, so it need not be reconstructed.
func (q *Queryable) meets(off uint32, from, to int64) (w0 int64, ok bool) {
	d := decoder{b: q.rep.wire, off: int(off)}
	var h [3]uint64
	d.uvarints(h[:])
	w0, n := q.span(h[:])
	return w0, overlaps(w0, w0+n, from, to)
}

// Span returns the hull [lo, hi) of the windows this report's curves
// cover: QueryRange is identically zero outside it. lo > hi for a report
// without a sample.
func (q *Queryable) Span() (lo, hi int64) { return q.lo, q.hi }

// Geometry identifies the hash layout of a report's sketch: two reports
// with equal geometries hash any flow to the same (row, bucket) positions,
// so their routing bitmaps can be merged into one window-global index that
// hashes each queried flow once per geometry instead of once per report.
type Geometry struct {
	Seed  uint64
	Rows  int
	Width int
}

// Geometry returns the report's hash layout.
func (q *Queryable) Geometry() Geometry {
	return Geometry{Seed: q.rep.Meta.Seed, Rows: len(q.seeds), Width: q.rep.Meta.Width}
}

// RowBits returns row r's non-empty-bucket bitmap (nil when the report has
// no light part). The slice is shared and must be treated as read-only.
func (q *Queryable) RowBits(r int) []uint64 {
	if r < 0 || r >= len(q.seeds) {
		return nil
	}
	return q.rowBits[r*q.words : (r+1)*q.words : (r+1)*q.words]
}

// curve returns the samples of the curve at off, memoized in c.
func (q *Queryable) curve(c *curveCache, off uint32) []float64 {
	if p := c.curve.Load(); p != nil {
		c.hot.Store(true)
		q.stats.DecodeHits.Inc()
		return *p
	}
	s := curveScratch.Get().(*curveBufs)
	length := q.parseCurve(off, s)
	curve := wavelet.Reconstruct(s.approx, s.details, q.rep.Meta.Levels, length)
	if max(cap(s.approx), cap(s.details)) <= 1<<16 { // a long curve's scratch is let go
		curveScratch.Put(s)
	}
	q.stats.DecodeCold.Inc()
	q.install(c, &curve)
	return curve
}

// curveBufs is the pooled scratch a curve is parsed into.
type curveBufs struct {
	approx  []int64
	details []wavelet.DetailRef
}

var curveScratch = sync.Pool{New: func() any { return new(curveBufs) }}

// parseCurve reads the curve at off into s and returns its len.
func (q *Queryable) parseCurve(off uint32, s *curveBufs) (length int) {
	d := decoder{b: q.rep.wire, off: int(off), levels: uint(q.rep.Meta.Levels)}
	var h [3]uint64
	d.uvarints(h[:])
	s.approx = slices.Grow(s.approx[:0], int(h[2]))[:h[2]]
	for i := range s.approx {
		s.approx[i] = unzigzag(d.uvarint())
	}
	nd := int(d.uvarint())
	s.details = slices.Grow(s.details[:0], nd)[:nd]
	d.details(s.details, h[2])
	return int(h[1])
}

// install makes a freshly decoded curve resident. Unbounded budgets take
// a lock-free CAS (concurrent first decodes each use their own copy; one
// wins residency — the decode is deterministic, so both are correct).
// Bounded budgets go through the mutex and run the clock sweep: rotate
// over every slot, clear hot bits (second chance), evict the first cold
// resident curve, until the cache is back under budget.
func (q *Queryable) install(c *curveCache, curve *[]float64) {
	if q.decodeBudget <= 0 {
		c.curve.CompareAndSwap(nil, curve)
		c.hot.Store(true)
		return
	}
	q.decodeMu.Lock()
	defer q.decodeMu.Unlock()
	if c.curve.Load() != nil {
		return // another query installed it while we decoded
	}
	for q.decodeCount >= q.decodeBudget {
		victim := q.slot(q.clockHand)
		q.clockHand = (q.clockHand + 1) % (len(q.entries) + len(q.hentries))
		if victim == c || victim.curve.Load() == nil {
			continue
		}
		if victim.hot.CompareAndSwap(true, false) {
			continue // second chance
		}
		victim.curve.Store(nil)
		q.decodeCount--
		q.stats.DecodeEvictions.Inc()
	}
	c.curve.Store(curve)
	c.hot.Store(true)
	q.decodeCount++
}

// sliceInto writes curve[w-w0] for w in [from, to) into dst, zero where the
// curve does not cover the window.
func sliceInto(dst []float64, w0 int64, curve []float64, from, to int64) {
	clear(dst)
	addInto(dst, w0, curve, from, to, 1)
}

// addInto adds sign*curve[w-w0] into dst over the overlap of [from, to)
// with the curve's span, without allocating.
func addInto(dst []float64, w0 int64, curve []float64, from, to int64, sign float64) {
	for w, hi := max(from, w0), min(to, w0+int64(len(curve))); w < hi; w++ {
		dst[w-from] += sign * curve[w-w0]
	}
}

// QueryRange estimates flow f's per-window byte counts over [from, to).
// Heavy flows answer from their dedicated curve, falling back to the light
// estimate for windows before the heavy entry began (mid-flow election),
// matching wavesketch.Full.QueryRange. Safe for concurrent use.
func (q *Queryable) QueryRange(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	return q.QueryRangeInto(make([]float64, 0, to-from), f, from, to)
}

// lightScratch pools the per-row working buffer of light estimates, so the
// alloc-free query path stays alloc-free across reports and goroutines.
var lightScratch = sync.Pool{New: func() any { return new([]float64) }}

// QueryRangeInto appends flow f's per-window estimates over [from, to) to
// dst and returns the extended slice — the allocation-free form of
// QueryRange for merge loops that reuse one buffer across reports. The
// appended region is fully overwritten. Identical arithmetic to QueryRange
// (same operations in the same order), so results are bit-equal. Safe for
// concurrent use.
func (q *Queryable) QueryRangeInto(dst []float64, f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	n := int(to - from)
	base := len(dst)
	if cap(dst)-base >= n {
		dst = dst[:base+n]
	} else {
		dst = append(dst, make([]float64, n)...)
	}
	out := dst[base : base+n]
	if hi, ok := q.heavy[f]; ok {
		h := &q.hentries[hi]
		w0, hit := q.meets(h.off, from, to)
		if hit {
			sliceInto(out, w0, q.curve(&h.cache, h.off), from, to)
		} else {
			clear(out)
		}
		if cut := min(w0, to); w0 > from {
			q.lightInto(out[:cut-from], f, from, cut)
		}
		return dst
	}
	q.lightInto(out, f, from, to)
	return dst
}

// lightInto is the light-part Count-Min estimate with co-located
// heavy-flow subtraction, written into out (len(out) == to-from, fully
// overwritten): per row, reconstruct the flow's bucket, subtract the heavy
// flows the inverted index lists for that bucket, clamp at zero (Count-Min
// estimates are non-negative) and fold the per-window minimum in place.
func (q *Queryable) lightInto(out []float64, f flowkey.Key, from, to int64) {
	n := int(to - from)
	rows := len(q.seeds)
	if rows == 0 {
		clear(out)
		return
	}
	sp := lightScratch.Get().(*[]float64)
	scratch := *sp
	if cap(scratch) < n {
		scratch = make([]float64, n)
	}
	scratch = scratch[:n]
	first := true
	p := f.Pack()
	for r := 0; r < rows; r++ {
		e := q.bucket(r, q.width.Index(p.Hash(q.seeds[r])))
		if e == nil {
			// An absent bucket means zero traffic hashed there: the min is 0.
			clear(out)
			break
		}
		// Only curves that meet the range are reconstructed. A bucket that
		// misses it starts the row at zero, but its co-located heavies are
		// still subtracted: reconstructed samples can be negative.
		if w0, ok := q.meets(e.off, from, to); ok {
			sliceInto(scratch, w0, q.curve(&e.cache, e.off), from, to)
		} else {
			clear(scratch)
		}
		// Subtract co-located heavy flows (§4.2) — only the ones the
		// inverted index recorded for this bucket.
		for _, hi := range q.coloc[e.colOff : e.colOff+e.colLen] {
			if h := &q.hentries[hi]; h.key != f {
				if w0, ok := q.meets(h.off, from, to); ok {
					addInto(scratch, w0, q.curve(&h.cache, h.off), from, to, -1)
				}
			}
		}
		for i, v := range scratch {
			if v < 0 {
				v = 0
			}
			if first || v < out[i] {
				out[i] = v
			}
		}
		first = false
	}
	*sp = scratch
	lightScratch.Put(sp)
}
