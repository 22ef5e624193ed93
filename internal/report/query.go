package report

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
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

// bucketEntry is one light-part bucket with its lazily-decoded curve and
// its slice of the inverted colocation index: the heavy entries whose keys
// hash into this bucket, in report order. Light queries subtract exactly
// these — no per-query scan over the full heavy set.
type bucketEntry struct {
	exp            *wavesketch.BucketExport
	colOff, colLen uint32 // q.coloc[colOff : colOff+colLen]
	cache          curveCache
}

// heavyEntry is one heavy-part entry with its lazily-decoded curve.
type heavyEntry struct {
	exp   *wavesketch.HeavyExport
	cache curveCache
}

// Queryable is a decoded report indexed for flow-rate queries on the
// analyzer: the heavy entries answer directly; light queries hash into the
// reported buckets, subtract co-located heavy flows and take the Count-Min
// per-window minimum. All indexes are built once at NewQueryable; after
// that the Queryable is safe for concurrent queries.
type Queryable struct {
	rep   *HostReport
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

// NewQueryable indexes a decoded report. Buckets outside the declared
// sketch shape can never be hashed to and are left out; of two buckets at
// one position the later wins (DecodeBytes admits neither).
func NewQueryable(r *HostReport) *Queryable {
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
	inShape := func(b *wavesketch.BucketExport) bool {
		return uint(b.Row) < uint(rows) && uint(b.Index) < uint(r.Meta.Width)
	}
	for i := range r.Buckets {
		if b := &r.Buckets[i]; inShape(b) {
			q.rowBits[b.Row*q.words+b.Index>>6] |= 1 << (b.Index & 63)
		}
	}
	n := 0
	for w, word := range q.rowBits {
		q.rank[w] = uint32(n)
		n += bits.OnesCount64(word)
	}
	q.entries = make([]bucketEntry, n)
	for i := range r.Buckets {
		if b := &r.Buckets[i]; inShape(b) {
			q.bucket(b.Row, b.Index).exp = b
		}
	}
	q.lo, q.hi = math.MaxInt64, math.MinInt64
	for i := range q.entries {
		b := q.entries[i].exp
		q.cover(b.W0, q.curveLen(b.Len, b.Approx))
	}
	for i := range r.Heavy {
		h := &r.Heavy[i]
		q.cover(h.W0, q.curveLen(h.Len, h.Approx))
	}
	if len(r.Heavy) == 0 {
		return q
	}
	q.hentries = make([]heavyEntry, len(r.Heavy))
	q.heavy = make(map[flowkey.Key]int32, len(r.Heavy))
	heavyKeys := make([]flowkey.Key, 0, len(r.Heavy)) // report order
	for i := range r.Heavy {
		h := &r.Heavy[i]
		q.hentries[i].exp = h
		if _, dup := q.heavy[h.Key]; !dup {
			heavyKeys = append(heavyKeys, h.Key)
		}
		q.heavy[h.Key] = int32(i)
	}
	// Inverted colocation index: for every heavy flow, mark the light
	// buckets it hashes into. Built once here — the per-query cost of a
	// light estimate does not depend on the heavy-set size. Two passes
	// over the (heavy flow, row) hits: count per bucket, then fill each
	// bucket's stretch of one flat array in report order. A key that misses
	// a bucket on the way is an orphan.
	hits := make([]*bucketEntry, 0, len(heavyKeys)*rows)
	for _, k := range heavyKeys {
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
			q.coloc[e.colOff+e.colLen] = q.heavy[heavyKeys[i/rows]]
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

// curveLen is len(wavelet.Reconstruct(approx, _, Levels, length)) without
// the decode: length when positive, else the padded reconstruction.
func (q *Queryable) curveLen(length int, approx []int64) int64 {
	if length > 0 {
		return int64(length)
	}
	return int64(len(approx)) << uint(q.rep.Meta.Levels)
}

// cover widens the report's span by a curve of n samples from window w0.
func (q *Queryable) cover(w0, n int64) {
	if n > 0 {
		q.lo, q.hi = min(q.lo, w0), max(q.hi, w0+n)
	}
}

// overlaps reports whether windows [lo, hi) and the non-empty range
// [from, to) share a window.
func overlaps(lo, hi, from, to int64) bool { return lo < to && hi > from }

// meets reports whether the curve exported as (w0, length, approx) has a
// sample in [from, to). One that has none contributes exactly nothing to
// an estimate over the range, so it need not be decoded.
func (q *Queryable) meets(w0 int64, length int, approx []int64, from, to int64) bool {
	return overlaps(w0, w0+q.curveLen(length, approx), from, to)
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

func (q *Queryable) heavyCurve(h *heavyEntry) []float64 {
	if p := h.cache.curve.Load(); p != nil {
		h.cache.hot.Store(true)
		q.stats.DecodeHits.Inc()
		return *p
	}
	curve := wavelet.Reconstruct(h.exp.Approx, h.exp.Details, q.rep.Meta.Levels, h.exp.Len)
	q.stats.DecodeCold.Inc()
	q.install(&h.cache, &curve)
	return curve
}

func (q *Queryable) bucketCurve(e *bucketEntry) []float64 {
	if p := e.cache.curve.Load(); p != nil {
		e.cache.hot.Store(true)
		q.stats.DecodeHits.Inc()
		return *p
	}
	curve := wavelet.Reconstruct(e.exp.Approx, e.exp.Details, q.rep.Meta.Levels, e.exp.Len)
	q.stats.DecodeCold.Inc()
	q.install(&e.cache, &curve)
	return curve
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
	for i := range dst {
		dst[i] = 0
	}
	addInto(dst, w0, curve, from, to, 1)
}

// addInto adds sign*curve[w-w0] into dst over the overlap of [from, to)
// with the curve's span, without allocating.
func addInto(dst []float64, w0 int64, curve []float64, from, to int64, sign float64) {
	lo := from
	if w0 > lo {
		lo = w0
	}
	hi := to
	if end := w0 + int64(len(curve)); end < hi {
		hi = end
	}
	for w := lo; w < hi; w++ {
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
		if q.meets(h.exp.W0, h.exp.Len, h.exp.Approx, from, to) {
			sliceInto(out, h.exp.W0, q.heavyCurve(h), from, to)
		} else {
			clear(out)
		}
		if w0 := h.exp.W0; w0 > from {
			cut := w0
			if cut > to {
				cut = to
			}
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
		for i := range out {
			out[i] = 0
		}
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
			for i := range out {
				out[i] = 0
			}
			break
		}
		// Only curves that meet the range are decoded. A bucket that misses
		// it starts the row at zero, but its co-located heavies are still
		// subtracted: reconstructed samples can be negative.
		if q.meets(e.exp.W0, e.exp.Len, e.exp.Approx, from, to) {
			sliceInto(scratch, e.exp.W0, q.bucketCurve(e), from, to)
		} else {
			clear(scratch)
		}
		// Subtract co-located heavy flows (§4.2) — only the ones the
		// inverted index recorded for this bucket.
		for _, hi := range q.coloc[e.colOff : e.colOff+e.colLen] {
			h := &q.hentries[hi]
			if h.exp.Key != f && q.meets(h.exp.W0, h.exp.Len, h.exp.Approx, from, to) {
				addInto(scratch, h.exp.W0, q.heavyCurve(h), from, to, -1)
			}
		}
		if first {
			for i, v := range scratch {
				if v < 0 {
					v = 0
				}
				out[i] = v
			}
			first = false
			continue
		}
		for i, v := range scratch {
			if v < 0 {
				v = 0
			}
			if v < out[i] {
				out[i] = v
			}
		}
	}
	*sp = scratch
	lightScratch.Put(sp)
}
