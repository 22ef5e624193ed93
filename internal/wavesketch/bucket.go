// Package wavesketch implements WaveSketch, the measurement algorithm at
// the heart of µMon (§4): a Count-Min-style sketch whose buckets compress a
// microsecond-level window-counter series online with the integer Haar
// wavelet transform, keeping all deepest-level approximation sums and only
// the weighted top-K detail coefficients. A sketch only measures (Algorithm
// 1): a sealed one is exported into a report, and rate curves are read back
// from that report (report.Queryable, Algorithm 2).
package wavesketch

import (
	"umon/internal/wavelet"
)

// coeffSink generalizes over the ideal (top-K heap) and hardware
// (parity-threshold) compression stages.
type coeffSink interface {
	wavelet.CoeffSink
	Sorted() []wavelet.DetailRef
	Len() int
	Reset()
}

// Bucket is one counter bucket of WaveSketch (Figure 6): an initial window
// id w0, the in-flight window (offset i, count c), the streaming transform
// state and the retained coefficient sets A and D.
//
// Buckets embed their transform state by value so a sketch can lay all of
// its buckets out in one contiguous slab: the counting-stage fields and
// the wavelet carry chain land in the same cache-line neighborhood, and
// constructing D×W buckets costs one allocation for the buckets and one
// for their sinks instead of D×W pointer chains. A bucket's approximations
// and retained details are allocated when its traffic first needs them.
type Bucket struct {
	w0     int64 // absolute window id of the first packet; -1 while empty
	i      int   // current window offset relative to w0
	c      int64 // current window byte/packet count
	sealed bool  // with the fields above: an empty bucket seals and resets inside one cache line
	stream wavelet.Stream
	sink   coeffSink
}

// Init prepares a (possibly slab-resident) bucket in place.
func (b *Bucket) Init(levels int, sink coeffSink) {
	b.w0, b.i, b.c, b.sealed = -1, 0, 0, false
	b.stream.Init(levels)
	b.sink = sink
}

// Empty reports whether the bucket has seen no packets.
func (b *Bucket) Empty() bool { return b.w0 < 0 }

// W0 returns the absolute window id of the bucket's first packet (-1 if
// empty).
func (b *Bucket) W0() int64 { return b.w0 }

// Update implements the Counting stage of Algorithm 1: accumulate v into
// the current window, or flush the finished counter into the transform and
// open a new window.
func (b *Bucket) Update(w int64, v int64) {
	if b.sealed {
		return
	}
	if b.w0 < 0 {
		b.w0 = w
		b.i = 0
		b.c = v
		return
	}
	off := int(w - b.w0)
	if off <= b.i {
		// Same window — or a stale timestamp from a colliding flow; both
		// fold into the open counter so no bytes are lost.
		b.c += v
		return
	}
	b.stream.Push(b.i, b.c, b.sink)
	b.i, b.c = off, v
}

// Seal flushes the last open counter and every pending detail coefficient.
// It is idempotent; a sealed bucket ignores further updates.
func (b *Bucket) Seal() {
	if b.sealed {
		return
	}
	b.sealed = true
	if b.w0 < 0 {
		return
	}
	b.stream.Push(b.i, b.c, b.sink)
	b.c = 0
	b.stream.Finish(b.sink)
}

// Len reports the number of windows covered (max offset + 1), 0 if empty.
func (b *Bucket) Len() int {
	if b.w0 < 0 {
		return 0
	}
	return b.i + 1
}

// Approx exposes the retained approximation coefficients (set A).
func (b *Bucket) Approx() []int64 { return b.stream.Approx() }

// Details exposes the retained detail coefficients (set D) of a sealed
// bucket in tree order (wavelet.CompareTree). The slice aliases the sink's
// storage, sorted in place, and holds until Reset.
func (b *Bucket) Details() []wavelet.DetailRef { return b.sink.Sorted() }

// Reset returns the bucket to its empty state, keeping allocations. An
// empty bucket has touched neither its transform state nor its sink.
func (b *Bucket) Reset() {
	b.sealed = false
	if b.w0 < 0 {
		return
	}
	b.w0, b.i, b.c = -1, 0, 0
	b.stream.Reset()
	b.sink.Reset()
}

// Wire-size constants for memory and report accounting. The paper's §4.2
// compression-ratio analysis uses 4-byte counters and α≈1.5 metadata
// overhead per retained detail coefficient (level + index).
const (
	counterBytes   = 4
	coeffBytes     = 4
	coeffMetaBytes = 2
	headerBytes    = 4 + 2 + 4 // w0 + i + c
)

// StateBytes is the device memory held by the bucket: header, pending
// per-level details, the approximation array and the K coefficient slots.
func (b *Bucket) StateBytes(k int) int64 {
	l := int64(b.stream.Levels())
	return headerBytes +
		l*(coeffBytes+coeffMetaBytes) + // _details temporaries
		int64(len(b.stream.Approx()))*counterBytes +
		int64(k)*(coeffBytes+coeffMetaBytes)
}

// ReportBytes is the upload size: w0, A and D (§4.2: O(n/2^L + K)).
func (b *Bucket) ReportBytes() int64 {
	if b.w0 < 0 {
		return 0
	}
	return 4 + // w0
		int64(len(b.stream.Approx()))*counterBytes +
		int64(b.sink.Len())*(coeffBytes+coeffMetaBytes)
}
