package wavelet

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

// TestPaperFigure5Example reproduces the worked example in the paper's
// Figure 5: signal {7,9,6,3,2,4,4,6}, decomposed over 3 levels.
func TestPaperFigure5Example(t *testing.T) {
	signal := []int64{7, 9, 6, 3, 2, 4, 4, 6}
	c, err := Forward(signal, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Approx, []int64{41}; !reflect.DeepEqual(got, want) {
		t.Errorf("approx = %v, want %v", got, want)
	}
	if got, want := c.Details[2], []int64{9}; !reflect.DeepEqual(got, want) {
		t.Errorf("level-3 detail = %v, want %v", got, want)
	}
	if got, want := c.Details[1], []int64{7, -4}; !reflect.DeepEqual(got, want) {
		t.Errorf("level-2 detail = %v, want %v", got, want)
	}
	if got, want := c.Details[0], []int64{-2, 3, -2, -2}; !reflect.DeepEqual(got, want) {
		t.Errorf("level-1 detail = %v, want %v", got, want)
	}

	// Lossless round trip restores the original exactly.
	back := InverseInt(c)
	if !reflect.DeepEqual(back, signal) {
		t.Errorf("lossless inverse = %v, want %v", back, signal)
	}

	// The figure drops the three smallest level-1 details (d11, d13, d14),
	// i.e. keeps {a31, d31, d21, d22, d12}: reconstruction should match the
	// figure's result {8,8,6,3,3,3,5,5}.
	keep := []DetailRef{
		{Level: 2, Index: 0, Val: 9},
		{Level: 1, Index: 0, Val: 7},
		{Level: 1, Index: 1, Val: -4},
		{Level: 0, Index: 1, Val: 3},
	}
	rec := Inverse(Compress(c, keep))
	want := []float64{8, 8, 6, 3, 3, 3, 5, 5}
	for i := range want {
		if math.Abs(rec[i]-want[i]) > 1e-9 {
			t.Fatalf("compressed reconstruction = %v, want %v", rec, want)
		}
	}
}

func TestForwardValidation(t *testing.T) {
	if _, err := Forward([]int64{1}, 0); err == nil {
		t.Error("levels=0 should be rejected")
	}
	c, err := Forward(nil, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c.NumCoeffs() != 0 {
		t.Errorf("empty signal should give zero coefficients, got %d", c.NumCoeffs())
	}
}

func TestForwardPadsToPowerOfTwo(t *testing.T) {
	// Length 5 with 2 levels pads to 8: approx has 2 entries.
	c, err := Forward([]int64{1, 2, 3, 4, 5}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Approx) != 2 {
		t.Fatalf("approx length = %d, want 2", len(c.Approx))
	}
	if c.Approx[0] != 10 || c.Approx[1] != 5 {
		t.Errorf("approx = %v, want [10 5]", c.Approx)
	}
	if c.NumCoeffs() != 8 {
		t.Errorf("total coefficients = %d, want 8 (padded length)", c.NumCoeffs())
	}
}

// Property: the transform is exactly invertible in integers when no
// coefficient is dropped, for arbitrary signals and depths.
func TestLosslessRoundTripProperty(t *testing.T) {
	f := func(raw []int16, lv uint8) bool {
		levels := int(lv%6) + 1
		signal := make([]int64, len(raw))
		for i, v := range raw {
			signal[i] = int64(v)
		}
		c, err := Forward(signal, levels)
		if err != nil {
			return false
		}
		back := InverseInt(c)
		for i, v := range signal {
			if back[i] != v {
				return false
			}
		}
		// Padded tail must reconstruct to zero.
		for _, v := range back[len(signal):] {
			if v != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property (Appendix A): keeping the k details with the largest weighted
// magnitude yields L2 error no worse than any other same-size selection.
// We verify against random alternative selections.
func TestTopKIsL2Optimal(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 16
		signal := make([]int64, n)
		for i := range signal {
			signal[i] = int64(rng.Intn(200) - 50)
		}
		levels := 3
		k := 1 + rng.Intn(6)
		c, _ := Forward(signal, levels)
		best := TopK(c, k)
		bestErr := l2err(signal, Inverse(Compress(c, best)))

		var all []DetailRef
		for l, det := range c.Details {
			for i, v := range det {
				if v != 0 {
					all = append(all, DetailRef{Level: int8(l), Index: int32(i), Val: v})
				}
			}
		}
		if len(all) < k {
			continue
		}
		for alt := 0; alt < 20; alt++ {
			rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			sel := append([]DetailRef(nil), all[:k]...)
			altErr := l2err(signal, Inverse(Compress(c, sel)))
			if bestErr > altErr+1e-6 {
				t.Fatalf("trial %d: TopK error %.6f worse than random selection %.6f", trial, bestErr, altErr)
			}
		}
	}
}

func l2err(orig []int64, rec []float64) float64 {
	var s float64
	for i := range rec {
		var o float64
		if i < len(orig) {
			o = float64(orig[i])
		}
		d := rec[i] - o
		s += d * d
	}
	return math.Sqrt(s)
}

// Property: the streaming transform emits exactly the same coefficient set
// as the offline Forward for in-order, gap-free input.
func TestStreamMatchesOffline(t *testing.T) {
	f := func(raw []int16, lv uint8) bool {
		if len(raw) == 0 {
			return true
		}
		levels := int(lv%5) + 1
		signal := make([]int64, len(raw))
		for i, v := range raw {
			signal[i] = int64(v)
		}

		st := NewStream(levels)
		var sink CollectSink
		for i, v := range signal {
			st.Push(i, v, &sink)
		}
		st.Finish(&sink)

		off, _ := Forward(signal, levels)
		if !reflect.DeepEqual(st.Approx(), off.Approx[:len(st.Approx())]) {
			return false
		}
		// Offline approximations beyond the stream's range must be zero.
		for _, a := range off.Approx[len(st.Approx()):] {
			if a != 0 {
				return false
			}
		}
		// Every streamed coefficient must match offline; offline non-zero
		// coefficients must all be streamed.
		want := map[[2]int]int64{}
		for l, det := range off.Details {
			for i, v := range det {
				if v != 0 {
					want[[2]int{l, i}] = v
				}
			}
		}
		if len(sink.Refs) != len(want) {
			return false
		}
		for _, r := range sink.Refs {
			if want[[2]int{int(r.Level), int(r.Index)}] != r.Val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// Streaming with gaps (idle windows) must equal offline transform of the
// gap-expanded signal.
func TestStreamWithGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		levels := 3
		var offsets []int
		var vals []int64
		off := 0
		for len(offsets) < 10 {
			off += 1 + rng.Intn(4) // gaps of 0-3 idle windows
			offsets = append(offsets, off)
			vals = append(vals, int64(rng.Intn(100)+1))
		}
		dense := make([]int64, off+1)
		st := NewStream(levels)
		var sink CollectSink
		for i, o := range offsets {
			dense[o] = vals[i]
			st.Push(o, vals[i], &sink)
		}
		st.Finish(&sink)

		rec := Reconstruct(st.Approx(), sink.Refs, levels, len(dense))
		for i, v := range dense {
			if math.Abs(rec[i]-float64(v)) > 1e-9 {
				t.Fatalf("trial %d: lossless gap reconstruction[%d] = %v, want %d", trial, i, rec[i], v)
			}
		}
	}
}

func TestStreamFinishEmpty(t *testing.T) {
	st := NewStream(4)
	if n := st.Finish(nil); n != 0 {
		t.Errorf("Finish on empty stream = %d, want 0", n)
	}
	if st.MaxOffset() != -1 {
		t.Errorf("MaxOffset on empty stream = %d, want -1", st.MaxOffset())
	}
}

func TestStreamReset(t *testing.T) {
	st := NewStream(2)
	st.Push(0, 5, nil)
	st.Push(1, 7, nil)
	st.Reset()
	if st.MaxOffset() != -1 || len(st.Approx()) != 0 {
		t.Error("Reset did not clear stream state")
	}
	var sink CollectSink
	st.Push(0, 3, &sink)
	st.Push(1, 1, &sink)
	st.Finish(&sink)
	// Level 0: 3−1 = 2; level 1 (half-filled pair): 3+1 = 4.
	want := map[int8]int64{0: 2, 1: 4}
	if len(sink.Refs) != 2 {
		t.Fatalf("post-reset details = %+v, want 2 coefficients", sink.Refs)
	}
	for _, r := range sink.Refs {
		if want[r.Level] != r.Val {
			t.Errorf("post-reset detail %+v, want level %d value %d", r, r.Level, want[r.Level])
		}
	}
}

func TestStreamOutOfOrderPushIsAbsorbed(t *testing.T) {
	st := NewStream(2)
	st.Push(0, 5, nil)
	st.Push(3, 2, nil)
	before := append([]int64(nil), st.Approx()...)
	st.Push(1, 9, nil) // late push: folded into the approximation only
	if got := st.Approx()[0] - before[0]; got != 9 {
		t.Errorf("late push changed approx by %d, want 9", got)
	}
}

func TestTopKSinkKeepsLargestWeighted(t *testing.T) {
	s := NewTopKSink(2)
	s.Offer(0, 0, 10)  // weighted 10/√2 ≈ 7.07
	s.Offer(3, 0, 100) // weighted 100/4 = 25
	s.Offer(1, 0, 8)   // weighted 4 — should be evicted by next
	s.Offer(0, 1, -30) // weighted ≈ 21.2
	kept := s.Sorted()
	if len(kept) != 2 {
		t.Fatalf("kept %d coefficients, want 2", len(kept))
	}
	seen := map[int64]bool{}
	for _, r := range kept {
		seen[r.Val] = true
	}
	if !seen[100] || !seen[-30] {
		t.Errorf("kept = %+v, want values 100 and -30", kept)
	}
	if s.MinWeighted() <= 0 {
		t.Error("MinWeighted should be positive for a non-empty sink")
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("Reset did not empty sink")
	}
}

func TestTopKSinkIgnoresZeroAndDisabled(t *testing.T) {
	s := NewTopKSink(0)
	s.Offer(0, 0, 5)
	if s.Len() != 0 {
		t.Error("K=0 sink must not retain coefficients")
	}
	s2 := NewTopKSink(4)
	s2.Offer(0, 0, 0)
	if s2.Len() != 0 {
		t.Error("zero coefficients must not be retained")
	}
	if s2.MinWeighted() != 0 {
		t.Error("MinWeighted of empty sink should be 0")
	}
}

func TestThresholdSinkFiltersAndEvicts(t *testing.T) {
	// Capacity 1 per parity, thresholds 4 (even) / 2 (odd).
	s := NewThresholdSink(2, 4, 2)
	s.Offer(0, 0, 3) // queue has room: accepted despite being below threshold
	if s.Len() != 1 {
		t.Fatal("free slot must accept any coefficient")
	}
	s.Offer(0, 1, 2) // full now; shifted |2| < 4 → filtered without a scan
	if kept := queued(s); len(kept) != 1 || kept[0].Val != 3 {
		t.Fatalf("kept = %+v, want the original 3", kept)
	}
	s.Offer(2, 0, 20) // shifted 20>>1=10 ≥ 4 and beats 3 → evicts
	kept := queued(s)
	if len(kept) != 1 || kept[0].Val != 20 {
		t.Fatalf("kept = %+v, want the level-2 coefficient 20", kept)
	}
	s.Offer(1, 0, 7) // odd parity queue has room → retained separately
	if s.Len() != 2 {
		t.Fatalf("parity queues should hold 2 total, got %d", s.Len())
	}
	s.Reset()
	if s.Len() != 0 {
		t.Error("Reset did not empty parity queues")
	}
}

// queued returns a copy of both parity queues, leaving the sink as it is.
func queued(s *ThresholdSink) []DetailRef {
	return append(slices.Clone(s.queues[0]), s.queues[1]...)
}

func TestWeightSequenceMatchesPaper(t *testing.T) {
	// §4.3 lists the level weights 1/√2, 1/2, 1/(2√2), 1/4, …
	want := []float64{1 / math.Sqrt2, 0.5, 1 / (2 * math.Sqrt2), 0.25}
	for l, w := range want {
		if math.Abs(Weight(l)-w) > 1e-12 {
			t.Errorf("Weight(%d) = %v, want %v", l, Weight(l), w)
		}
	}
}

func TestReconstructEdgeCases(t *testing.T) {
	if got := Reconstruct(nil, nil, 3, 0); got != nil {
		t.Errorf("empty reconstruction should be nil, got %v", got)
	}
	got := Reconstruct(nil, nil, 3, 5)
	if len(got) != 5 {
		t.Fatalf("len = %d, want 5", len(got))
	}
	for _, v := range got {
		if v != 0 {
			t.Error("empty bucket must reconstruct to zeros")
		}
	}
	// Out-of-range detail refs are ignored, not a panic.
	rec := Reconstruct([]int64{8}, []DetailRef{{Level: 9, Index: 0, Val: 1}, {Level: 0, Index: 99, Val: 1}}, 2, 4)
	for _, v := range rec {
		if v != 2 {
			t.Errorf("reconstruction = %v, want uniform 2s", rec)
		}
	}
}

func TestReconstructPadsShortLength(t *testing.T) {
	rec := Reconstruct([]int64{4}, nil, 1, 8)
	if len(rec) != 8 {
		t.Fatalf("len = %d, want 8", len(rec))
	}
	if rec[0] != 2 || rec[1] != 2 || rec[7] != 0 {
		t.Errorf("unexpected padded reconstruction %v", rec)
	}
}

// inverseReconstruct is Reconstruct as it was before it expanded in place:
// scatter the kept details into dense per-level slices, run Inverse, cut
// or pad to length. The reference for the property below.
func inverseReconstruct(approx []int64, kept []DetailRef, levels, length int) []float64 {
	if len(approx) == 0 {
		if length <= 0 {
			return nil
		}
		return make([]float64, length)
	}
	c := &Coeffs{Levels: levels, Approx: approx, Details: make([][]int64, levels)}
	n := len(approx) << levels
	for l := 0; l < levels; l++ {
		c.Details[l] = make([]int64, n>>(l+1))
	}
	for _, r := range kept {
		if l, i := int(r.Level), int(r.Index); l >= 0 && l < levels && i >= 0 && i < len(c.Details[l]) {
			c.Details[l][i] = r.Val
		}
	}
	rec := Inverse(c)
	if length > 0 {
		if len(rec) > length {
			rec = rec[:length]
		} else if len(rec) < length {
			rec = append(rec, make([]float64, length-len(rec))...)
		}
	}
	return rec
}

// TestReconstructMatchesInverse pins the in-place expansion bit for bit
// to Inverse over random coefficient sets: odd approximation counts,
// lossy detail sets with out-of-range and repeated references, every
// length in [1, n+7] for a small padded span n and random lengths below,
// at and beyond a large one. The curve allocates only what it returns:
// length samples, n when length ≤ 0.
func TestReconstructMatchesInverse(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 2000; trial++ {
		levels := 1 + rng.Intn(9)
		approx := make([]int64, rng.Intn(5))
		for i := range approx {
			approx[i] = rng.Int63n(1<<40) - 1<<39
		}
		n := len(approx) << levels
		kept := make([]DetailRef, rng.Intn(40))
		for i := range kept {
			kept[i] = DetailRef{Level: int8(rng.Intn(levels+2) - 1), Index: int32(rng.Intn(n+2) - 1), Val: rng.Int63n(1<<41) - 1<<40}
		}
		lengths := []int{0, -1}
		if n <= 64 {
			for length := 1; length <= n+7; length++ {
				lengths = append(lengths, length)
			}
		} else {
			lengths = append(lengths, 1, n-1, n, n+7, 1+rng.Intn(n), 1+rng.Intn(n), n+1+rng.Intn(n))
		}
		for _, length := range lengths {
			want := inverseReconstruct(approx, kept, levels, length)
			got := Reconstruct(approx, kept, levels, length)
			if len(got) != len(want) {
				t.Fatalf("trial %d: len %d, want %d", trial, len(got), len(want))
			}
			wantCap := length
			if length <= 0 {
				wantCap = n
			}
			if cap(got) != wantCap {
				t.Fatalf("trial %d (L=%d |A|=%d len=%d): cap %d, want %d", trial, levels, len(approx), length, cap(got), wantCap)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("trial %d (L=%d |A|=%d len=%d): sample %d = %v, want %v", trial, levels, len(approx), length, i, got[i], want[i])
				}
			}
		}
	}
}

// TestReconstructAllocations pins the cold decode at its output slice (and
// at most a refill of the pooled detail scratch).
func TestReconstructAllocations(t *testing.T) {
	approx := []int64{900, 40, 7}
	kept := []DetailRef{{Level: 0, Index: 5, Val: 3}, {Level: 7, Index: 1, Val: -20}, {Level: 3, Index: 2, Val: 9}}
	if got := testing.AllocsPerRun(200, func() { Reconstruct(approx, kept, 8, 700) }); got > 2 {
		t.Errorf("Reconstruct allocates %v times per call, want ≤ 2", got)
	}
}

func TestCompressionRatioFormula(t *testing.T) {
	// §4.2: with L=8, K=32, α=1.5, n=2000 the expected ratio is ≈0.028.
	n, L, K, alpha := 2000.0, 8.0, 32.0, 1.5
	ratio := (n/math.Pow(2, L) + alpha*K) / n
	if math.Abs(ratio-0.0279) > 0.001 {
		t.Errorf("compression ratio = %v, want ≈0.028", ratio)
	}
}

func BenchmarkStreamPush(b *testing.B) {
	st := NewStream(8)
	sink := NewTopKSink(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st.Push(i, int64(i%97), sink)
	}
}

// lazyRefStream is the pre-carry-chain streaming transform (per-level ±c
// accumulation, flushed lazily when the window moves past each span),
// preserved verbatim as the oracle for the carry-chain rewrite: the two
// must emit the exact same coefficient sequence, in the same order, with
// the same approximation contents, or downstream top-K tie-breaking (and
// therefore every rendered figure) could silently drift.
type lazyRefStream struct {
	levels  int
	approx  []int64
	pending []struct {
		Index int
		Val   int64
	}
	maxOff  int
	started bool
}

func newLazyRef(levels int) *lazyRefStream {
	s := &lazyRefStream{levels: levels}
	s.pending = make([]struct {
		Index int
		Val   int64
	}, levels)
	return s
}

func (s *lazyRefStream) Push(i int, c int64, sink CoeffSink) {
	if s.started && i <= s.maxOff {
		pos := i >> s.levels
		if pos < len(s.approx) {
			s.approx[pos] += c
		}
		return
	}
	s.started = true
	s.maxOff = i
	posA := i >> s.levels
	for len(s.approx) <= posA {
		s.approx = append(s.approx, 0)
	}
	s.approx[posA] += c
	for l := 0; l < s.levels; l++ {
		posD := i >> (l + 1)
		if posD > s.pending[l].Index {
			if s.pending[l].Val != 0 && sink != nil {
				sink.Offer(l, s.pending[l].Index, s.pending[l].Val)
			}
			s.pending[l].Index, s.pending[l].Val = posD, 0
		}
		if (i>>l)&1 == 0 {
			s.pending[l].Val += c
		} else {
			s.pending[l].Val -= c
		}
	}
}

func (s *lazyRefStream) Finish(sink CoeffSink) int {
	if !s.started {
		return 0
	}
	for l := 0; l < s.levels; l++ {
		if s.pending[l].Val != 0 && sink != nil {
			sink.Offer(l, s.pending[l].Index, s.pending[l].Val)
		}
		s.pending[l].Val = 0
	}
	return padLen(s.maxOff+1, s.levels)
}

// TestStreamMatchesReference drives the carry-chain Stream and the lazy
// reference in lockstep over randomized gappy, occasionally out-of-order
// sequences and requires the full observable behavior to match exactly:
// offer order, offer values, approximation array, MaxOffset and the padded
// length returned by Finish.
func TestStreamMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		levels := 1 + rng.Intn(16) // past inlineLevels: the spilled carry chain too
		st := NewStream(levels)
		ref := newLazyRef(levels)
		var got, want CollectSink

		off := 0
		n := 1 + rng.Intn(200)
		for p := 0; p < n; p++ {
			var i int
			if off > 0 && rng.Intn(10) == 0 {
				i = rng.Intn(off + 1) // stale offset: absorbed into approx
			} else {
				step := 1
				if rng.Intn(4) == 0 {
					step += rng.Intn(1 << uint(rng.Intn(levels+2))) // jump a subtree
				}
				off += step
				i = off
			}
			v := int64(rng.Intn(2000)) - 400 // include zeros and negatives
			st.Push(i, v, &got)
			ref.Push(i, v, &want)
			if len(got.Refs) != len(want.Refs) {
				t.Fatalf("trial %d push %d: %d offers vs reference %d", trial, p, len(got.Refs), len(want.Refs))
			}
		}
		gotPad := st.Finish(&got)
		wantPad := ref.Finish(&want)
		if gotPad != wantPad {
			t.Fatalf("trial %d: Finish = %d, reference %d", trial, gotPad, wantPad)
		}
		if !reflect.DeepEqual(got.Refs, want.Refs) {
			t.Fatalf("trial %d: offer sequence diverged\n got %+v\nwant %+v", trial, got.Refs, want.Refs)
		}
		if !reflect.DeepEqual(st.Approx(), ref.approx) {
			t.Fatalf("trial %d: approx %v, reference %v", trial, st.Approx(), ref.approx)
		}
		if st.MaxOffset() != ref.maxOff {
			t.Fatalf("trial %d: MaxOffset %d, reference %d", trial, st.MaxOffset(), ref.maxOff)
		}
	}
}

// TestStreamInitReuse checks that Init restores a used stream to a clean
// state without reallocating the inline carry array.
func TestStreamInitReuse(t *testing.T) {
	st := NewStream(4)
	var sink CollectSink
	for i := 0; i < 37; i++ {
		st.Push(i, int64(i%5), &sink)
	}
	st.Finish(&sink)
	st.Init(6)
	if st.MaxOffset() != -1 || len(st.Approx()) != 0 || st.Levels() != 6 {
		t.Fatal("Init did not reset stream state")
	}
	var after CollectSink
	ref := newLazyRef(6)
	var refSink CollectSink
	for i := 0; i < 80; i++ {
		st.Push(i, int64(i*3%7), &after)
		ref.Push(i, int64(i*3%7), &refSink)
	}
	st.Finish(&after)
	ref.Finish(&refSink)
	if !reflect.DeepEqual(after.Refs, refSink.Refs) {
		t.Fatalf("reused stream diverged from reference")
	}
}
