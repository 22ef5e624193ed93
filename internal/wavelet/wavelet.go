// Package wavelet implements the integer Haar wavelet variant used by
// WaveSketch (µMon, SIGCOMM 2024, §4).
//
// The classic discrete Haar transform computes, for every pair of adjacent
// samples, a normalized average and difference (both scaled by 1/√2). The
// paper's variant drops the 1/√2 energy-conservation factor so that every
// operation stays in integers:
//
//	approximation a = left + right   (a plain sum)
//	detail        d = left - right
//
// The deepest-level approximations are therefore exact sub-range totals of
// the signal, and the transform remains perfectly reversible:
//
//	left  = (a + d) / 2
//	right = (a - d) / 2
//
// The package provides the offline forward transform (used by tests and the
// experiments), the reconstruction from a sparse coefficient set that the
// analyzer and the experiments share (Algorithm 2), the optimal top-k
// coefficient selection of Appendix A, and the streaming
// one-counter-at-a-time transform of Algorithm 1 that WaveSketch buckets
// embed.
package wavelet

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Coeffs holds the output of a forward transform of a length-n signal
// decomposed over L levels: n/2^L approximation coefficients (sub-range
// sums) plus one detail slice per level. Details[l] has n/2^(l+1) entries;
// level 0 is the shallowest (fastest-varying) level.
type Coeffs struct {
	Levels  int
	Approx  []int64
	Details [][]int64
}

// weightTab caches Weight for every realistic level: the sketch ranks a
// coefficient on every sink offer, and math.Pow is far too slow for that
// hot path. Entries are produced by the exact same formula, so ranking is
// bit-identical to computing Pow inline.
var weightTab = func() (t [64]float64) {
	for l := range t {
		t[l] = math.Pow(2, -float64(l+1)/2)
	}
	return
}()

// Weight returns the orthonormal magnitude weight of a detail coefficient at
// the given (0-indexed) level: 2^(-(level+1)/2). Ranking |d|·Weight(level)
// and keeping the largest minimizes the L2 reconstruction error (Appendix A).
func Weight(level int) float64 {
	if uint(level) < uint(len(weightTab)) {
		return weightTab[level]
	}
	return math.Pow(2, -float64(level+1)/2)
}

// padLen returns the smallest power of two ≥ n that is also ≥ 2^levels, so a
// signal can always be decomposed over the requested number of levels.
func padLen(n, levels int) int {
	p := 1 << levels
	for p < n {
		p <<= 1
	}
	return p
}

// Forward decomposes signal over `levels` levels of the paper's Haar
// variant. The signal is zero-padded on the right to a power of two (this is
// exactly what Algorithm 2's padding step does). levels must be ≥ 1.
func Forward(signal []int64, levels int) (*Coeffs, error) {
	if levels < 1 {
		return nil, fmt.Errorf("wavelet: levels must be ≥ 1, got %d", levels)
	}
	if len(signal) == 0 {
		return &Coeffs{Levels: levels, Details: make([][]int64, levels)}, nil
	}
	n := padLen(len(signal), levels)
	cur := make([]int64, n)
	copy(cur, signal)

	c := &Coeffs{Levels: levels, Details: make([][]int64, levels)}
	for l := 0; l < levels; l++ {
		half := len(cur) / 2
		next := make([]int64, half)
		det := make([]int64, half)
		for i := 0; i < half; i++ {
			next[i] = cur[2*i] + cur[2*i+1]
			det[i] = cur[2*i] - cur[2*i+1]
		}
		c.Details[l] = det
		cur = next
	}
	c.Approx = cur
	return c, nil
}

// DetailRef identifies one detail coefficient, in 16 bytes: a report holds
// hundreds of them and the collector a window of reports. A curve has at
// most 2²⁸ samples (the decoder's bound) and 24 levels.
type DetailRef struct {
	Val   int64 // coefficient value
	Index int32 // index within the level
	Level int8  // 0-indexed level
}

// WeightedAbs is the Appendix-A ranking key of the coefficient.
func (d DetailRef) WeightedAbs() float64 {
	return math.Abs(float64(d.Val)) * Weight(int(d.Level))
}

// CompareTree orders detail coefficients as the Haar tree lays them out
// breadth first from the root: deepest level first, ascending index within
// a level. Over a sequence of n samples that is ascending tree id
// (n >> (Level+1)) + Index, whatever n is — the order the report wire
// format delta-codes.
func CompareTree(a, b DetailRef) int {
	if a.Level != b.Level {
		return cmp.Compare(b.Level, a.Level)
	}
	return cmp.Compare(a.Index, b.Index)
}

// TopK returns the k detail coefficients with the largest weighted absolute
// value across all levels (ties broken toward shallower level, then lower
// index, for determinism). Zero-valued coefficients are never selected.
func TopK(c *Coeffs, k int) []DetailRef {
	return topBy(c, k, func(a, b DetailRef) int { return cmp.Compare(b.WeightedAbs(), a.WeightedAbs()) })
}

// TopKUnweighted selects the k details with the largest *raw* absolute
// value, ignoring the per-level weight. It exists for the ablation of the
// Appendix-A selection rule: without the 2^(-(l+1)/2) weight, deep-level
// coefficients (which are sums over many windows and therefore large) crowd
// out the shallow ones that carry the fast rate changes.
func TopKUnweighted(c *Coeffs, k int) []DetailRef {
	abs := func(v int64) int64 {
		if v < 0 {
			return -v
		}
		return v
	}
	return topBy(c, k, func(a, b DetailRef) int { return cmp.Compare(abs(b.Val), abs(a.Val)) })
}

// topBy selects the k nonzero details of c that come first by rank, ties
// toward the shallower level, then the lower index. Selection is by full
// sort: n is modest (≤ a few thousand per bucket).
func topBy(c *Coeffs, k int, rank func(a, b DetailRef) int) []DetailRef {
	var all []DetailRef
	for l, det := range c.Details {
		for i, v := range det {
			if v != 0 {
				all = append(all, DetailRef{Level: int8(l), Index: int32(i), Val: v})
			}
		}
	}
	slices.SortFunc(all, func(a, b DetailRef) int {
		return cmp.Or(rank(a, b), cmp.Compare(a.Level, b.Level), cmp.Compare(a.Index, b.Index))
	})
	out := make([]DetailRef, min(k, len(all)))
	copy(out, all)
	return out
}
