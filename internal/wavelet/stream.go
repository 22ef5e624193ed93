package wavelet

import (
	"math"
	"slices"
	"sync"
)

// levelNode is the carry state of the frontier-path node at one level: the
// sums of the values pushed into its left and right halves so far. The
// node's index is not stored: it is always maxOff >> (level+1). The node's
// detail coefficient is lsum-rsum and its total (propagated to the parent
// on completion) is lsum+rsum.
type levelNode struct {
	lsum int64
	rsum int64
}

// inlineLevels is the decomposition depth covered by the Stream's inline
// carry array. Depths up to inlineLevels (the paper uses L=8) keep their
// carry chain inside the Stream, so a slab of Streams allocates nothing per
// stream but its approximations, on first use.
const inlineLevels = 12

// CoeffSink receives finished detail coefficients from a Stream. A sink
// decides which coefficients to retain (the compression stage). Zero-valued
// coefficients are not emitted.
type CoeffSink interface {
	Offer(level, index int, val int64)
}

// Stream performs the online wavelet transform of Algorithm 1: window
// counters are pushed one at a time (in order of window offset) and detail
// coefficients are emitted to a CoeffSink as soon as they are complete.
// Approximation coefficients at the deepest level are accumulated directly.
//
// Internally the transform runs as a binary-counter carry chain: each push
// touches level 0 only, and a completed node's total carries into its
// parent. A push therefore does amortized O(1) work regardless of the
// decomposition depth, where the textbook formulation accumulates ±c into
// every level's pending coefficient. The emitted coefficient sequence is
// identical to the per-level formulation (TestStreamMatchesReference pins
// this), so downstream top-K/threshold selection is unchanged.
//
// The zero value is not usable; construct with NewStream or Init.
type Stream struct {
	levels  int
	approx  []int64
	maxOff  int  // largest window offset seen so far
	started bool // true once the first counter has been pushed

	// nodes holds the frontier-path carry state for depths up to
	// inlineLevels directly inside the struct, so buckets embedding a
	// Stream by value keep their whole carry chain in one slab and the
	// struct stays safe to copy. Deeper decompositions spill to ext.
	nodes [inlineLevels]levelNode
	ext   []levelNode
}

// nodeSlice returns the active per-level carry state. It is derived on
// every call (never stored) so that value copies of a Stream remain
// independent snapshots.
func (s *Stream) nodeSlice() []levelNode {
	if s.ext != nil {
		return s.ext
	}
	return s.nodes[:s.levels]
}

// NewStream returns a streaming transformer decomposing over `levels`
// levels.
func NewStream(levels int) *Stream {
	s := new(Stream)
	s.Init(levels)
	return s
}

// Init (re)initializes a Stream in place, allocating only when the depth
// exceeds the inline capacity; the approximation array grows on first use
// and keeps its allocation. It lets callers embed Streams by value in a
// contiguous slab instead of chasing per-bucket pointers.
func (s *Stream) Init(levels int) {
	s.levels = levels
	if levels <= inlineLevels {
		s.ext = nil
	} else if cap(s.ext) >= levels {
		s.ext = s.ext[:levels]
	} else {
		s.ext = make([]levelNode, levels)
	}
	clear(s.nodeSlice())
	s.approx = s.approx[:0]
	s.maxOff = 0
	s.started = false
}

// Levels reports the decomposition depth L.
func (s *Stream) Levels() int { return s.levels }

// Approx exposes the accumulated deepest-level approximation coefficients.
// The caller must not mutate the returned slice.
func (s *Stream) Approx() []int64 { return s.approx }

// Push transforms one finished window counter c at window offset i
// (Algorithm 1's Transformation procedure). Offsets must be pushed in
// strictly increasing order; gaps are fine (missing windows count zero).
func (s *Stream) Push(i int, c int64, sink CoeffSink) {
	if s.started && i <= s.maxOff {
		// Out-of-order push: fold into the approximation only. This cannot
		// happen from WaveSketch's Counting stage (which always moves
		// forward) but keeps the component safe in isolation.
		pos := i >> s.levels
		if pos < len(s.approx) {
			s.approx[pos] += c
		}
		return
	}
	if !s.started {
		s.started = true
		s.maxOff = i
	} else {
		o := s.maxOff
		s.maxOff = i
		if i>>1 != o>>1 {
			s.advance(o, i, sink)
		}
	}

	// Keep len(approx) == maxOff>>L + 1, the same eager-growth invariant as
	// accumulating per push (memory accounting reads the length mid-stream);
	// values land when the covering depth-L subtree completes.
	for len(s.approx) <= i>>s.levels {
		s.approx = append(s.approx, 0)
	}

	// The leaf itself only touches level 0; completions carry upward.
	n0 := &s.nodeSlice()[0]
	if i&1 == 0 {
		n0.lsum += c
	} else {
		n0.rsum += c
	}
}

// advance completes every frontier-path node the frontier moves past on its
// way from offset o to offset i: emit the node's detail, carry its total
// into the parent, and restart the node at i's path. Skipped windows are
// implicitly zero, so off-path nodes hold no state and need no work; the
// loop stops at the first level whose node index is unchanged.
func (s *Stream) advance(o, i int, sink CoeffSink) {
	var carry int64
	childIdx := 0
	nodes := s.nodeSlice()
	for l := 0; l < s.levels; l++ {
		n := &nodes[l]
		if l > 0 && carry != 0 {
			if childIdx&1 == 0 {
				n.lsum += carry
			} else {
				n.rsum += carry
			}
		}
		idx := o >> (l + 1)
		if i>>(l+1) == idx {
			return
		}
		if d := n.lsum - n.rsum; d != 0 && sink != nil {
			sink.Offer(l, idx, d)
		}
		carry = n.lsum + n.rsum
		childIdx = idx
		n.lsum, n.rsum = 0, 0
	}
	// The deepest node completed: its total is one approximation counter.
	if carry != 0 {
		for len(s.approx) <= childIdx {
			s.approx = append(s.approx, 0)
		}
		s.approx[childIdx] += carry
	}
}

// Finish flushes every pending detail coefficient (Algorithm 2's pre-steps:
// the caller must first Push the final counter; padding with zero counters is
// implicit because zero contributions leave coefficients unchanged) and
// returns the padded sequence length. Reset the stream before its next Push.
func (s *Stream) Finish(sink CoeffSink) int {
	if !s.started {
		return 0
	}
	s.advance(s.maxOff, math.MinInt, sink) // an offset on no node's path completes every node
	return padLen(s.maxOff+1, s.levels)
}

// Reset returns the stream to its initial state, keeping allocations.
func (s *Stream) Reset() { s.Init(s.levels) }

// TopKSink retains the K detail coefficients with the largest weighted
// absolute value seen so far — the ideal (CPU) compression stage of
// WaveSketch. Below K it only appends: most buckets never overflow, and a
// Stream offers each level's details in ascending index order, which Sorted
// keeps. The min-heap keyed by WeightedAbs is built on the first overflow
// (or MinWeighted) by the sift-ups eager pushes would have made, in their
// order, so the heap, every tie-break and the kept set are theirs.
// Its slots grow by use, doubling from sinkFloor up to K, and Reset keeps
// them; an empty sink is safe to copy, so a sketch makes its sinks a slab.
type TopKSink struct {
	refs []DetailRef // grown by use, capacity at most k
	k    int
	minW float64 // refs[0].WeightedAbs() while refs is a heap, else 0
}

// sinkFloor is the capacity a sink's first offer allocates: most buckets
// of a Table 1 sketch peak at 8 to 15 details an epoch.
const sinkFloor = 8

// NewTopKSink returns a sink retaining at most k coefficients. It
// allocates nothing until its first offer.
func NewTopKSink(k int) *TopKSink { return &TopKSink{k: k} }

// Offer implements CoeffSink.
func (t *TopKSink) Offer(level, index int, val int64) {
	if val == 0 || t.k == 0 {
		return
	}
	r := DetailRef{Level: int8(level), Index: int32(index), Val: val}
	if n := len(t.refs); n < t.k {
		if n == cap(t.refs) {
			t.refs = append(make([]DetailRef, 0, min(max(2*n, sinkFloor), t.k)), t.refs...)
		}
		t.refs = append(t.refs, r)
		return
	}
	if t.minW == 0 { // a retained detail weighs more than 0: no heap yet
		t.heapify()
	}
	if w := r.WeightedAbs(); w > t.minW {
		t.down(r, w)
	}
}

// Sorted puts the retained coefficients in tree order in place and returns
// them without copying. The slice aliases the sink and holds until the next
// Offer, MinWeighted or Reset.
func (t *TopKSink) Sorted() []DetailRef {
	t.minW = 0
	treeOrder(t.refs)
	return t.refs
}

// Len reports how many coefficients are currently retained.
func (t *TopKSink) Len() int { return len(t.refs) }

// MinWeighted reports the smallest weighted magnitude currently retained,
// or 0 if empty. Threshold calibration for the hardware version samples it.
func (t *TopKSink) MinWeighted() float64 {
	if len(t.refs) == 0 {
		return 0
	}
	if t.minW == 0 {
		t.heapify()
	}
	w := t.minW
	if len(t.refs) < t.k {
		t.minW = 0 // the appends to come are not in the heap
	}
	return w
}

// Reset empties the sink, keeping allocations.
func (t *TopKSink) Reset() {
	t.refs = t.refs[:0]
	t.minW = 0
}

// heapify sifts each ref up in turn, exactly as pushing it would have; a
// ref already in heap order stays put. The heap is hand-rolled rather than
// container/heap because heap.Push boxes each DetailRef into an interface.
func (t *TopKSink) heapify() {
	h := t.refs
	for j := 1; j < len(h); j++ {
		i, r := j, h[j]
		w := r.WeightedAbs()
		for i > 0 {
			parent := (i - 1) / 2
			if !(w < h[parent].WeightedAbs()) {
				break
			}
			h[i] = h[parent]
			i = parent
		}
		h[i] = r
	}
	t.minW = h[0].WeightedAbs()
}

// down replaces the root with r, of weighted magnitude w, and sifts it down
// with the comparisons, and to the slot, a swapping sift-down would.
func (t *TopKSink) down(r DetailRef, w float64) {
	h := t.refs
	i, n := 0, len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		least, lw := l, h[l].WeightedAbs()
		if c := l + 1; c < n {
			if cw := h[c].WeightedAbs(); cw < lw {
				least, lw = c, cw
			}
		}
		if !(lw < w) {
			break
		}
		h[i] = h[least]
		i = least
	}
	h[i] = r
	t.minW = h[0].WeightedAbs()
}

// treeScratch pools the copy treeOrder scatters from.
var treeScratch = sync.Pool{New: func() any { return new([]DetailRef) }}

// treeOrder puts refs in tree order (CompareTree) in place: one stable
// counting pass over levels, deepest first, then an index sort of only the
// level runs that do not already ascend. A sink fed by a Stream below its
// capacity holds every level in ascending index order and sorts nothing.
func treeOrder(refs []DetailRef) {
	if len(refs) < 2 {
		return
	}
	var end [64]int // per level: its count, then where its run ends
	deepest := 0
	for _, r := range refs {
		l := int(r.Level)
		if uint(l) >= uint(len(end)) {
			slices.SortFunc(refs, CompareTree)
			return
		}
		end[l]++
		deepest = max(deepest, l)
	}
	n := 0
	for l := deepest; l >= 0; l-- {
		n += end[l]
		end[l] = n
	}
	sp := treeScratch.Get().(*[]DetailRef)
	src := append((*sp)[:0], refs...)
	for i := len(src) - 1; i >= 0; i-- {
		l := src[i].Level
		end[l]--
		refs[end[l]] = src[i]
	}
	*sp = src
	treeScratch.Put(sp)
	// end[l] is now where level l's run starts, and the next shallower
	// level's start is where it ends.
	hi := len(refs)
	for l := 0; l <= deepest; l++ {
		if run := refs[end[l]:hi]; !slices.IsSortedFunc(run, CompareTree) {
			slices.SortFunc(run, CompareTree)
		}
		hi = end[l]
	}
}

// ThresholdSink approximates top-k selection the way the hardware pipeline
// does (§4.3): coefficients are split by level parity, weighted by a right
// shift of ⌊l/2⌋ bits within their parity class, compared against a
// calibrated per-parity threshold, and stored in two bounded queues (odd and
// even levels) that evict their minimum when full.
type ThresholdSink struct {
	// Thresholds on the *shifted* absolute value, per parity (index 0 =
	// even levels, 1 = odd levels).
	Threshold [2]int64
	// Capacity per parity queue (the paper splits K across two queues).
	Cap int

	queues [2][]DetailRef
}

// NewThresholdSink builds a hardware-style sink with per-parity capacity
// k/2 (minimum 1) and the given shifted-value thresholds.
func NewThresholdSink(k int, thrEven, thrOdd int64) *ThresholdSink {
	return &ThresholdSink{Threshold: [2]int64{thrEven, thrOdd}, Cap: max(k/2, 1)}
}

// shiftedAbs is the hardware comparison key: |val| >> ⌊level/2⌋. Within one
// parity class, consecutive levels differ by exactly one doubling, so the
// shift reproduces the relative weighting without any √2 arithmetic.
func shiftedAbs(level int, val int64) int64 {
	a := val
	if a < 0 {
		a = -a
	}
	return a >> uint(level/2)
}

// Offer implements CoeffSink with branch-and-threshold selection: while a
// parity queue has free slots every coefficient is accepted (an empty
// register slot costs nothing to fill); once full, the pre-set threshold is
// the cheap drop filter that spares the pipeline the min-scan, and only
// above-threshold newcomers evict the current minimum.
func (t *ThresholdSink) Offer(level, index int, val int64) {
	if val == 0 {
		return
	}
	p := level & 1
	sv := shiftedAbs(level, val)
	q := t.queues[p]
	if len(q) < t.Cap {
		t.queues[p] = append(q, DetailRef{Level: int8(level), Index: int32(index), Val: val})
		return
	}
	if sv < t.Threshold[p] {
		return // filtered by the pre-set threshold
	}
	// Replace the minimum if the newcomer beats it.
	minI, minV := 0, int64(math.MaxInt64)
	for i, r := range q {
		if s := shiftedAbs(int(r.Level), r.Val); s < minV {
			minI, minV = i, s
		}
	}
	if sv > minV {
		q[minI] = DetailRef{Level: int8(level), Index: int32(index), Val: val}
	}
}

// Sorted merges the two queues into the first, puts it in tree order and
// returns it without copying. The slice aliases the sink and the parity
// split is gone: Reset the sink before its next Offer.
func (t *ThresholdSink) Sorted() []DetailRef {
	t.queues[0] = append(t.queues[0], t.queues[1]...)
	t.queues[1] = t.queues[1][:0]
	treeOrder(t.queues[0])
	return t.queues[0]
}

// Len reports the number of retained coefficients.
func (t *ThresholdSink) Len() int { return len(t.queues[0]) + len(t.queues[1]) }

// Reset empties both queues, keeping allocations.
func (t *ThresholdSink) Reset() {
	t.queues[0] = t.queues[0][:0]
	t.queues[1] = t.queues[1][:0]
}
