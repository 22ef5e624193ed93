package wavelet

import (
	"math/rand"
	"slices"
	"testing"
)

// eagerTopK is the top-K sink as it was before the heap was deferred to the
// first overflow: every offer below K pushes onto the heap at once. It is
// the oracle TopKSink is held to, heap array and all.
type eagerTopK struct {
	k    int
	refs []DetailRef
}

func (e *eagerTopK) less(i, j int) bool { return e.refs[i].WeightedAbs() < e.refs[j].WeightedAbs() }

func (e *eagerTopK) Offer(level, index int, val int64) {
	if e.k <= 0 || val == 0 {
		return
	}
	r := DetailRef{Level: int8(level), Index: int32(index), Val: val}
	if len(e.refs) < e.k {
		e.refs = append(e.refs, r)
		for i := len(e.refs) - 1; i > 0; {
			parent := (i - 1) / 2
			if !e.less(i, parent) {
				break
			}
			e.refs[i], e.refs[parent] = e.refs[parent], e.refs[i]
			i = parent
		}
		return
	}
	if r.WeightedAbs() <= e.refs[0].WeightedAbs() {
		return
	}
	e.refs[0] = r
	for i, n := 0, len(e.refs); ; {
		l := 2*i + 1
		if l >= n {
			return
		}
		least := l
		if c := l + 1; c < n && e.less(c, l) {
			least = c
		}
		if !e.less(least, i) {
			return
		}
		e.refs[i], e.refs[least] = e.refs[least], e.refs[i]
		i = least
	}
}

func (e *eagerTopK) MinWeighted() float64 {
	if len(e.refs) == 0 {
		return 0
	}
	return e.refs[0].WeightedAbs()
}

func (e *eagerTopK) Sorted() []DetailRef {
	slices.SortFunc(e.refs, CompareTree)
	return e.refs
}

// sinkOffer is one offer of a tie-heavy sequence.
type sinkOffer struct {
	level, index int
	val          int64
	askMin       bool // call MinWeighted on both sinks after this offer
}

// tieHeavyOffers decodes b into offers that tie often: values in ±{1, 2, 4}
// (zero now and then), on the gappy levels {0, 1, 3, 4, 7}, each level's
// indices ascending with gaps as a Stream emits them.
func tieHeavyOffers(b []byte) []sinkOffer {
	levels := [...]int{0, 1, 3, 4, 7}
	vals := [...]int64{1, -1, 2, -2, 4, -4, 0, 2}
	var next [8]int
	offers := make([]sinkOffer, 0, len(b))
	for _, x := range b {
		l := levels[int(x)%len(levels)]
		next[l] += 1 + int(x>>6)
		offers = append(offers, sinkOffer{level: l, index: next[l], val: vals[(x>>3)&7], askMin: x&0x20 != 0 && x&0x4 != 0})
	}
	return offers
}

// checkAgainstEager drives a TopKSink and the eager oracle with the same
// offers: once the heap is built the two arrays are identical, MinWeighted
// agrees wherever it is asked, and Sorted returns the same slice.
func checkAgainstEager(t *testing.T, k int, offers []sinkOffer) {
	t.Helper()
	s, e := NewTopKSink(k), &eagerTopK{k: k}
	for i, o := range offers {
		s.Offer(o.level, o.index, o.val)
		e.Offer(o.level, o.index, o.val)
		if o.askMin {
			if got, want := s.MinWeighted(), e.MinWeighted(); got != want {
				t.Fatalf("k=%d offer %d: MinWeighted %v, eager %v", k, i, got, want)
			}
		}
		if s.minW != 0 && !slices.Equal(s.refs, e.refs) {
			t.Fatalf("k=%d offer %d: heap\n%v\neager heap\n%v", k, i, s.refs, e.refs)
		}
	}
	if got, want := s.MinWeighted(), e.MinWeighted(); got != want {
		t.Fatalf("k=%d: final MinWeighted %v, eager %v", k, got, want)
	}
	if got, want := s.Sorted(), e.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("k=%d: Sorted\n%v\neager\n%v", k, got, want)
	}
}

func TestTopKSinkMatchesEagerHeap(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	b := make([]byte, 200)
	for trial := 0; trial < 2000; trial++ {
		rng.Read(b[:1+rng.Intn(len(b))])
		checkAgainstEager(t, 1+trial%12, tieHeavyOffers(b[:1+rng.Intn(len(b))]))
	}
}

func FuzzTopKSink(f *testing.F) {
	f.Add(uint8(1), []byte{0, 1, 2, 3, 4})
	f.Add(uint8(5), []byte("ties and ties and ties, at every level"))
	f.Add(uint8(12), []byte{0x24, 0x24, 0x2c, 0xff, 0x08, 0x10, 0x18, 0x20, 0x28, 0x30, 0x38, 0x01, 0x09, 0x11})
	f.Fuzz(func(t *testing.T, k uint8, b []byte) {
		checkAgainstEager(t, 1+int(k)%12, tieHeavyOffers(b))
	})
}

// TestTopKSinkBelowKDoesNotSift: a sink that never reaches K only appends,
// so it holds the offers in arrival order and has built no heap.
func TestTopKSinkBelowKDoesNotSift(t *testing.T) {
	s := NewTopKSink(64)
	var want []DetailRef
	for i := 0; i < 63; i++ {
		r := DetailRef{Level: int8(i % 5), Index: int32(i), Val: int64(100 - 3*i)}
		s.Offer(int(r.Level), int(r.Index), r.Val)
		want = append(want, r)
	}
	if s.minW != 0 || !slices.Equal(s.refs, want) {
		t.Fatalf("below K the sink sifted: refs %v", s.refs)
	}
	s.Offer(0, 99, 1)
	s.Offer(0, 100, 1)
	if s.minW == 0 {
		t.Fatal("the first overflow built no heap")
	}
}

// streamRefs runs a seeded gappy series over levels levels through a Stream
// into sink.
func streamRefs(sink CoeffSink, levels int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := NewStream(levels)
	off := 0
	for i := 0; i < 3000; i++ {
		st.Push(off, int64(rng.Intn(9000)-1000), sink)
		off += 1 + rng.Intn(4)<<uint(rng.Intn(min(levels, 16)))
	}
	st.Finish(sink)
}

// TestSortedMatchesCompareTree: both sinks' tree-order pass equals
// slices.SortFunc with CompareTree on stream-ordered, heap-ordered,
// reversed and deep (24-level) contents.
func TestSortedMatchesCompareTree(t *testing.T) {
	wantTree := func(refs []DetailRef) []DetailRef {
		c := slices.Clone(refs)
		slices.SortFunc(c, CompareTree)
		return c
	}
	reversed := func(refs []DetailRef) *TopKSink {
		s := NewTopKSink(len(refs))
		for i := len(refs) - 1; i >= 0; i-- {
			s.Offer(int(refs[i].Level), int(refs[i].Index), refs[i].Val)
		}
		return s
	}
	for _, levels := range []int{8, 24} {
		stream := NewTopKSink(1 << 16)
		streamRefs(stream, levels, 1)
		heap := NewTopKSink(48)
		streamRefs(heap, levels, 2)
		if heap.Len() != 48 || heap.minW == 0 {
			t.Fatalf("levels %d: the heap-ordered sink holds %d refs, heap built %v", levels, heap.Len(), heap.minW != 0)
		}
		for i, s := range []*TopKSink{reversed(stream.refs), stream, heap} {
			want := wantTree(s.refs)
			if got := s.Sorted(); !slices.Equal(got, want) {
				t.Errorf("levels %d, %s-ordered TopKSink: Sorted\n%v\nwant\n%v", levels, []string{"reversed", "stream", "heap"}[i], got, want)
			}
		}
		for _, thr := range []int64{0, 400} {
			s := NewThresholdSink(40, thr, thr)
			streamRefs(s, levels, 3)
			want := wantTree(queued(s))
			if got := s.Sorted(); !slices.Equal(got, want) {
				t.Errorf("levels %d, threshold %d ThresholdSink: Sorted\n%v\nwant\n%v", levels, thr, got, want)
			}
		}
	}
}

// TestTopKSinkOffersAfterSorted: a sink offered more after Sorted builds its
// heap again and keeps the K largest of everything offered.
func TestTopKSinkOffersAfterSorted(t *testing.T) {
	s := NewTopKSink(8)
	var all []DetailRef
	for i := 0; i < 40; i++ {
		r := DetailRef{Index: int32(i), Val: int64((i * 37) % 101)}
		if i == 20 {
			s.Sorted()
		}
		s.Offer(0, int(r.Index), r.Val)
		all = append(all, r)
	}
	slices.SortFunc(all, func(a, b DetailRef) int { return int(b.Val - a.Val) })
	want := all[:8]
	slices.SortFunc(want, CompareTree)
	if got := s.Sorted(); !slices.Equal(got, want) {
		t.Fatalf("Sorted after more offers\n%v\nwant\n%v", got, want)
	}
}
