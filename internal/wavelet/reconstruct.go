package wavelet

import "sync"

// detailScratch pools the dense detail array Reconstruct scatters the
// retained coefficients into.
var detailScratch = sync.Pool{New: func() any { return new([]int64) }}

// maxPooledDetails bounds the scratch kept between calls (64 Ki values,
// 512 KB): larger reconstructions allocate theirs and let it go.
const maxPooledDetails = 1 << 16

// Reconstruct rebuilds a rate curve from deepest-level approximation sums
// and a sparse set of retained detail coefficients (Algorithm 2, performed on
// the analyzer). Missing detail coefficients are treated as zero. The result
// holds `length` samples, zero past the padded span n = len(approx)<<levels;
// if length ≤ 0, the n samples of the full padded reconstruction.
//
// The curve is expanded in place in its one output allocation, of exactly
// those samples: level by level, each back to front, so a pair is written
// only after the value it splits was read, and level l expands only the
// ⌈length/2^l⌉ values the kept samples descend from. Per element these are
// the operations of the textbook level-by-level inverse in its order, so the
// two agree bit for bit (TestReconstructMatchesInverse).
func Reconstruct(approx []int64, kept []DetailRef, levels, length int) []float64 {
	if len(approx) == 0 && length <= 0 {
		return nil
	}
	// Level l holds n>>(l+1) details, stored at det[n-n>>l:]: level 0 in
	// the first half, level 1 in the next quarter, and so on.
	n := len(approx) << levels
	sp := detailScratch.Get().(*[]int64)
	det := *sp
	if cap(det) < n-len(approx) {
		det = make([]int64, n-len(approx))
	}
	det = det[:n-len(approx)]
	clear(det)
	for _, r := range kept {
		if l, i := int(r.Level), int(r.Index); l >= 0 && l < levels && i >= 0 && i < n>>(l+1) {
			det[n-n>>l+i] = r.Val
		}
	}
	if length <= 0 {
		length = n
	}
	out := make([]float64, length)
	// Level l keeps last>>l+1 = ⌈min(length, n)/2^l⌉ values.
	last := min(length, n) - 1
	for i, a := range approx[:last>>levels+1] {
		out[i] = float64(a)
	}
	for l := levels - 1; l >= 0; l-- {
		d, k := det[n-n>>l:], last>>l+1
		if k&1 == 1 { // the last value's odd child lies past the kept prefix
			out[k-1] = (out[k>>1] + float64(d[k>>1])) / 2
		}
		for i := k>>1 - 1; i >= 0; i-- {
			c, di := out[i], float64(d[i])
			out[2*i] = (c + di) / 2
			out[2*i+1] = (c - di) / 2
		}
	}
	if cap(det) <= maxPooledDetails {
		*sp = det
	}
	detailScratch.Put(sp)
	return out
}
