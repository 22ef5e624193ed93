package report

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
)

// curveCache memoizes one wavelet reconstruction. Readers load the pointer
// lock-free; a nil pointer means not resident (never decoded, or evicted
// by the clock sweep when a decode budget is set). A resident curve carries
// its w0, so a lookup that hits reads nothing of the payload. The hot bit is
// the clock algorithm's second-chance marker, set by a hit that finds it
// clear. Decodes are deterministic, so re-decoding after an eviction
// returns identical curves — residency is purely a memory/CPU trade.
type curveCache struct {
	curve atomic.Pointer[residentCurve]
	hot   atomic.Bool
}

// residentCurve is a reconstructed curve and the window of its first
// sample.
type residentCurve struct {
	w0      int64
	samples []float64
}

// FlowQuery is one flow query's plan and working memory: the flow, the
// windows [from, to) it asks about, its bucket index in each row of the
// sketch it was last hashed for, and the buffers routing and the per-report
// estimates fill. A query over many reports — every epoch of a window, and
// every report each epoch routes it to — hashes the flow once per sketch
// and takes one scratch from the pool. A FlowQuery is one goroutine's.
type FlowQuery struct {
	f        flowkey.Key
	from, to int64
	meta     SketchMeta // the sketch idx holds f's buckets of
	idx      []int      // f's bucket index in each row of meta
	hashes   int        // sketches f was hashed for
	acc      []uint64   // routed member bitset
	ids      []int      // routed member ids
	buf, row []float64  // one report's answer; one row's light estimate
}

var flowQueries = sync.Pool{New: func() any { return new(FlowQuery) }}

// NewFlowQuery returns a pooled plan for flow f over windows [from, to) (an
// inverted range reads as empty). Release it when the query is done.
func NewFlowQuery(f flowkey.Key, from, to int64) *FlowQuery {
	fq := flowQueries.Get().(*FlowQuery)
	fq.f, fq.from, fq.to, fq.hashes = f, from, max(from, to), 0
	return fq
}

// Release returns fq's buffers to the pool; fq must not be used after.
func (fq *FlowQuery) Release() { flowQueries.Put(fq) }

// rows returns f's bucket index in each row of q's sketch, hashing f only
// when that sketch is not the one it was last hashed for.
func (fq *FlowQuery) rows(q *Queryable) []int {
	if fq.hashes == 0 || q.rep.Meta != fq.meta {
		fq.idx = fq.idx[:0]
		p := fq.f.Pack()
		for _, seed := range q.seeds {
			fq.idx = append(fq.idx, q.width.Index(p.Hash(seed)))
		}
		fq.meta = q.rep.Meta
		fq.hashes++
	}
	return fq.idx
}

// Queryable is a report indexed for flow-rate queries on the analyzer: the
// heavy entries answer directly; light queries hash into the reported
// buckets, subtract co-located heavy flows and take the Count-Min
// per-window minimum. A curve stays in the payload until a query first
// needs its samples. Curves are numbered as the report's index numbers
// them: the buckets in (row, index) order, then the heavy entries. All
// indexes are built once at NewQueryable; after that the Queryable is safe
// for concurrent queries.
type Queryable struct {
	rep   *HostReport // header, payload and the index parse built
	seeds []uint64
	width flowkey.Reducer // hash → bucket index within a row
	// The light part is indexed by rank, with no hash table: rank holds the
	// number of buckets before each word of the report's row bitmaps, so
	// bucket (r, idx), if its bit is set, is curve rank[word] + popcount(bits
	// below idx). A flow whose bucket is empty in any row has an
	// identically-zero Count-Min estimate, so the same bitmaps route queries
	// past this report.
	words int
	rank  []uint32
	// caches memoizes each curve's reconstruction. They are made on the first
	// cold decode: a report no query reaches holds one nil pointer.
	caches atomic.Pointer[[]curveCache]
	// heavy maps a flow to its heavy entry's curve (the last one, should a
	// report repeat a key); nil for a report without a heavy part. Bucket b's
	// co-located heavy curves — those whose keys hash into it, in report
	// order — are coloc[colAt[b]:colAt[b+1]], so light queries subtract
	// exactly these, with no per-query scan over the full heavy set.
	heavy map[flowkey.Key]int32
	coloc []int32
	colAt []uint32
	// stats is a value copy of the optional decode telemetry (zero value =
	// disabled; every handle nil-checks itself).
	stats QueryStats
	// resident counts the curves resident in caches, whatever the budget.
	resident atomic.Int64
	// Decode residency budget: with decodeBudget > 0 at most that many
	// reconstructed curves stay resident, evicted by a clock (second
	// chance) sweep over caches. 0 keeps every curve forever (the
	// historical behaviour — but unbounded: a long-lived analyzer querying
	// many reports holds every curve it ever decoded).
	decodeMu     sync.Mutex
	decodeBudget int
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

// ResidentCurves reports how many reconstructed curves are currently
// resident, in O(1): every install and eviction moves one count.
func (q *Queryable) ResidentCurves() int { return int(q.resident.Load()) }

// NewQueryable indexes a report for queries. parse has found its curves,
// bitmaps and heavy keys; what is left is what hashing and counting derive
// from them — the rank, the heavy map and the colocation lists. The curve
// caches wait for the first cold decode. A sketch counts every packet in
// its light part, so a heavy key's light bucket is there in every row; a
// report where one is missing is refused, as the routing index could not
// find it. It panics on a report parse did not make.
func NewQueryable(r *HostReport) (*Queryable, error) {
	if r.wire == nil {
		panic("report: NewQueryable of a HostReport that Decode, DecodeBytes, FromBasic or FromFull did not make")
	}
	q := &Queryable{rep: r, width: flowkey.NewReducer(r.Meta.Width), words: (r.Meta.Width + 63) / 64}
	q.seeds = make([]uint64, r.Meta.Rows)
	for i := range q.seeds {
		q.seeds[i] = flowkey.RowSeed(r.Meta.Seed, i)
	}
	q.rank = make([]uint32, len(r.rowBits))
	n := 0
	for w, word := range r.rowBits {
		q.rank[w] = uint32(n)
		n += bits.OnesCount64(word)
	}
	if len(r.keys) == 0 {
		return q, nil
	}
	q.heavy = make(map[flowkey.Key]int32, len(r.keys))
	keys := make([]flowkey.Key, 0, len(r.keys)) // report order
	for i, k := range r.keys {
		if _, dup := q.heavy[k]; !dup {
			keys = append(keys, k)
		}
		q.heavy[k] = int32(n + i)
	}
	// Inverted colocation index: for every heavy flow, mark the light
	// buckets it hashes into. Built once here — the per-query cost of a
	// light estimate does not depend on the heavy-set size. Two passes over
	// the (heavy flow, row) hits: count per bucket into colAt and sum the
	// counts up to each bucket's end, then fill backwards, moving each
	// bucket's end down to its start.
	rows := len(q.seeds)
	hits := make([]int32, 0, len(keys)*rows)
	q.colAt = make([]uint32, n+1)
	for _, k := range keys {
		p := k.Pack()
		for row, seed := range q.seeds {
			b := q.bucket(row, q.width.Index(p.Hash(seed)))
			if b < 0 {
				return nil, fmt.Errorf("report: host %d: heavy flow %s has no light bucket in row %d", r.Host, k, row)
			}
			q.colAt[b]++
			hits = append(hits, b)
		}
	}
	for b := 1; b <= n; b++ {
		q.colAt[b] += q.colAt[b-1]
	}
	q.coloc = make([]int32, q.colAt[n])
	for i := len(hits) - 1; i >= 0; i-- {
		b := hits[i]
		q.colAt[b]--
		q.coloc[q.colAt[b]] = q.heavy[keys[i/rows]]
	}
	return q, nil
}

// bucket returns the curve of light bucket (r, idx), -1 when the report has
// none there. r and idx must lie inside the sketch shape.
func (q *Queryable) bucket(r, idx int) int32 {
	w := r*q.words + idx>>6
	word, bit := q.rep.rowBits[w], uint64(1)<<(idx&63)
	if word&bit == 0 {
		return -1
	}
	return int32(q.rank[w]) + int32(bits.OnesCount64(word&(bit-1)))
}

// overlaps reports whether windows [lo, hi) and the non-empty range
// [from, to) share a window.
func overlaps(lo, hi, from, to int64) bool { return lo < to && hi > from }

// Span returns the hull [lo, hi) of the windows this report's curves
// cover: QueryRange is identically zero outside it. lo > hi for a report
// without a sample.
func (q *Queryable) Span() (lo, hi int64) { return q.rep.lo, q.rep.hi }

// lookup returns curve c's w0 and, when it has a sample in [from, to), its
// samples, memoized in its cache. A curve that has none contributes exactly
// nothing to an estimate over the range: lookup returns nil samples and
// does not reconstruct it. A resident curve answers from its cache entry;
// only a curve that is not reads its header off the payload.
func (q *Queryable) lookup(c int32, from, to int64) (w0 int64, samples []float64) {
	if caches := q.caches.Load(); caches != nil {
		e := &(*caches)[c]
		if r := e.curve.Load(); r != nil {
			if !overlaps(r.w0, r.w0+int64(len(r.samples)), from, to) {
				return r.w0, nil
			}
			if !e.hot.Load() {
				e.hot.Store(true)
			}
			q.stats.DecodeHits.Inc()
			return r.w0, r.samples
		}
	}
	d := decoder{b: q.rep.wire, off: int(q.rep.curves[c])}
	var h [3]uint64
	d.uvarints(h[:])
	w0, n := q.rep.span(h[:])
	if !overlaps(w0, w0+n, from, to) {
		return w0, nil
	}
	s := curveScratch.Get().(*curveBufs)
	length := q.parseCurve(q.rep.curves[c], s)
	r := &residentCurve{w0: w0, samples: wavelet.Reconstruct(s.approx, s.details, q.rep.Meta.Levels, length)}
	if max(cap(s.approx), cap(s.details)) <= 1<<16 { // a long curve's scratch is let go
		curveScratch.Put(s)
	}
	q.stats.DecodeCold.Inc()
	q.install(c, r)
	return w0, r.samples
}

// span returns curve c's windows [w0, w0+n): off its entry in caches when
// it is resident there, else off its header in the payload, as lookup reads
// them.
func (q *Queryable) span(caches *[]curveCache, c int32) (w0, n int64) {
	if caches != nil {
		if r := (*caches)[c].curve.Load(); r != nil {
			return r.w0, int64(len(r.samples))
		}
	}
	d := decoder{b: q.rep.wire, off: int(q.rep.curves[c])}
	var h [3]uint64
	d.uvarints(h[:])
	return q.rep.span(h[:])
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

// install makes freshly decoded curve i resident and counts it. The first
// decodes make the caches and, like concurrent decodes of one curve, race a
// CAS: each uses its own copy, one wins (decodes are deterministic). With a
// budget the mutex guards the clock sweep: rotate over every cache, clear
// hot bits (second chance), evict the first cold resident curve, until the
// cache is back under budget.
func (q *Queryable) install(i int32, curve *residentCurve) {
	if q.caches.Load() == nil {
		made := make([]curveCache, len(q.rep.curves))
		q.caches.CompareAndSwap(nil, &made)
	}
	caches := *q.caches.Load()
	c := &caches[i]
	if q.decodeBudget <= 0 {
		if c.curve.CompareAndSwap(nil, curve) {
			q.resident.Add(1)
		}
		c.hot.Store(true)
		return
	}
	q.decodeMu.Lock()
	defer q.decodeMu.Unlock()
	if c.curve.Load() != nil {
		return // another query installed it while we decoded
	}
	for q.resident.Load() >= int64(q.decodeBudget) {
		victim := &caches[q.clockHand]
		q.clockHand = (q.clockHand + 1) % len(caches)
		if victim == c || victim.curve.Load() == nil {
			continue
		}
		if victim.hot.CompareAndSwap(true, false) {
			continue // second chance
		}
		victim.curve.Store(nil)
		q.resident.Add(-1)
		q.stats.DecodeEvictions.Inc()
	}
	c.curve.Store(curve)
	c.hot.Store(true)
	q.resident.Add(1)
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

// QueryRange estimates flow f's per-window byte counts over [from, to): the
// one code that answers a WaveSketch flow query. Heavy flows answer from
// their dedicated curve, falling back to the light estimate for windows
// before the heavy entry began (mid-flow election). Safe for concurrent use.
func (q *Queryable) QueryRange(f flowkey.Key, from, to int64) []float64 {
	fq := NewFlowQuery(f, from, to)
	defer fq.Release()
	return q.QueryRangeInto(make([]float64, 0, fq.to-fq.from), fq)
}

// QueryRangeInto appends the estimates of fq's flow over its windows to dst
// and returns the extended slice — the allocation-free form of QueryRange
// for merge loops that reuse one buffer and one plan across reports. The
// appended region is fully overwritten. Identical arithmetic to QueryRange
// (same operations in the same order), so results are bit-equal. Safe for
// concurrent use, each goroutine with its own plan.
func (q *Queryable) QueryRangeInto(dst []float64, fq *FlowQuery) []float64 {
	return q.rangeInto(dst, fq, fq.rows(q))
}

// rangeInto is QueryRangeInto with the flow's bucket index in each row at
// hand: a routed set hands its members the ones hashed for its sketch.
func (q *Queryable) rangeInto(dst []float64, fq *FlowQuery, idx []int) []float64 {
	from, to := fq.from, fq.to
	n := int(to - from)
	base := len(dst)
	if cap(dst)-base >= n {
		dst = dst[:base+n]
	} else {
		dst = append(dst, make([]float64, n)...)
	}
	out := dst[base : base+n]
	h, ok := q.heavy[fq.f]
	if !ok {
		q.lightInto(out, fq, idx, -1, from, to)
		return dst
	}
	w0, curve := q.lookup(h, from, to)
	if curve != nil {
		sliceInto(out, w0, curve, from, to)
	} else {
		clear(out)
	}
	if cut := min(w0, to); w0 > from {
		q.lightInto(out[:cut-from], fq, idx, h, from, cut)
	}
	return dst
}

// lightInto is the light-part Count-Min estimate with co-located
// heavy-flow subtraction, written into out (len(out) == to-from, fully
// overwritten): per row, reconstruct the flow's bucket, subtract the heavy
// flows the inverted index lists for that bucket, clamp at zero (Count-Min
// estimates are non-negative) and fold the per-window minimum in place.
// self is f's own heavy curve, which is not subtracted (-1 for none); idx
// holds f's bucket index in each row. A sketch of several rows runs the
// loops only where every clean row's curve has a window (cleanSpan):
// outside it that row is +0 after the clamp, and so is the minimum (no path
// makes -0: samples are float64 of integers, their halved sums and
// differences).
func (q *Queryable) lightInto(out []float64, fq *FlowQuery, idx []int, self int32, from, to int64) {
	if len(idx) > 1 {
		lo, hi := q.cleanSpan(idx, self, from, to)
		if lo >= hi {
			clear(out)
			return
		}
		clear(out[:lo-from])
		clear(out[hi-from:])
		out, from, to = out[lo-from:hi-from], lo, hi
	}
	scratch := slices.Grow(fq.row[:0], len(out))[:len(out)]
	for r, pos := range idx {
		b := q.bucket(r, pos)
		if b < 0 {
			// An absent bucket means zero traffic hashed there: the min is 0.
			clear(out)
			break
		}
		// Only curves that meet the range are reconstructed. A bucket that
		// misses it starts the row at zero, but its co-located heavies are
		// still subtracted: reconstructed samples can be negative.
		if w0, curve := q.lookup(b, from, to); curve != nil {
			sliceInto(scratch, w0, curve, from, to)
		} else {
			clear(scratch)
		}
		// Subtract co-located heavy flows (§4.2) — only the ones the
		// inverted index recorded for this bucket.
		if q.colAt != nil {
			for _, h := range q.coloc[q.colAt[b]:q.colAt[b+1]] {
				if h == self {
					continue
				}
				if w0, curve := q.lookup(h, from, to); curve != nil {
					addInto(scratch, w0, curve, from, to, -1)
				}
			}
		}
		for i, v := range scratch {
			if v < 0 {
				v = 0
			}
			if r == 0 || v < out[i] {
				out[i] = v
			}
		}
	}
	fq.row = scratch
}

// cleanSpan narrows [from, to) to the span of the flow's bucket curve in
// each clean row — one whose bucket has no co-located heavy but self — read
// off its cache entry or header, not its samples; lo >= hi when no window
// is left or a row lacks the bucket.
func (q *Queryable) cleanSpan(idx []int, self int32, from, to int64) (lo, hi int64) {
	lo, hi = from, to
	caches := q.caches.Load()
	for r, pos := range idx {
		b := q.bucket(r, pos)
		if b < 0 {
			return lo, lo
		}
		if q.colAt != nil && slices.ContainsFunc(q.coloc[q.colAt[b]:q.colAt[b+1]], func(h int32) bool { return h != self }) {
			continue // 0 minus a heavy's negative sample is positive
		}
		w0, n := q.span(caches, b)
		if lo, hi = max(lo, w0), min(hi, w0+n); lo >= hi {
			break
		}
	}
	return lo, hi
}
