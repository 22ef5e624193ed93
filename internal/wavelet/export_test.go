package wavelet

// NumCoeffs reports the total number of coefficients, which always equals
// the original signal length.
func (c *Coeffs) NumCoeffs() int {
	n := len(c.Approx)
	for _, d := range c.Details {
		n += len(d)
	}
	return n
}

// Inverse reconstructs the (padded) signal from coefficients, level by
// level into fresh slices: the oracle Reconstruct is held to bit for bit.
// Division by 2 is done in float64 so that reconstructions from
// *compressed* coefficient sets (where exactness is lost anyway) do not
// suffer integer truncation.
func Inverse(c *Coeffs) []float64 {
	cur := make([]float64, len(c.Approx))
	for i, a := range c.Approx {
		cur[i] = float64(a)
	}
	for l := c.Levels - 1; l >= 0; l-- {
		det := c.Details[l]
		next := make([]float64, 2*len(cur))
		for i := range cur {
			var d float64
			if i < len(det) {
				d = float64(det[i])
			}
			next[2*i] = (cur[i] + d) / 2
			next[2*i+1] = (cur[i] - d) / 2
		}
		cur = next
	}
	return cur
}

// Compress zeroes every detail coefficient not present in keep, returning a
// new coefficient set: the paper's compression stage on an offline
// transform, as Inverse takes it.
func Compress(c *Coeffs, keep []DetailRef) *Coeffs {
	out := &Coeffs{Levels: c.Levels, Approx: append([]int64(nil), c.Approx...)}
	out.Details = make([][]int64, len(c.Details))
	for l := range c.Details {
		out.Details[l] = make([]int64, len(c.Details[l]))
	}
	for _, r := range keep {
		if l, i := int(r.Level), int(r.Index); l < len(out.Details) && i < len(out.Details[l]) {
			out.Details[l][i] = r.Val
		}
	}
	return out
}

// InverseInt reconstructs in exact integer arithmetic. It is only valid for
// lossless coefficient sets (every (a,d) pair has matching parity); it is
// used by tests to verify perfect reconstruction.
func InverseInt(c *Coeffs) []int64 {
	cur := make([]int64, len(c.Approx))
	copy(cur, c.Approx)
	for l := c.Levels - 1; l >= 0; l-- {
		det := c.Details[l]
		next := make([]int64, 2*len(cur))
		for i := range cur {
			var d int64
			if i < len(det) {
				d = det[i]
			}
			next[2*i] = (cur[i] + d) / 2
			next[2*i+1] = (cur[i] - d) / 2
		}
		cur = next
	}
	return cur
}

// MaxOffset reports the largest window offset pushed so far (-1 if none).
func (s *Stream) MaxOffset() int {
	if !s.started {
		return -1
	}
	return s.maxOff
}

// CollectSink retains every coefficient (lossless): the streaming transform is
// held to the offline Forward through it.
type CollectSink struct{ Refs []DetailRef }

// Offer implements CoeffSink.
func (c *CollectSink) Offer(level, index int, val int64) {
	c.Refs = append(c.Refs, DetailRef{Level: int8(level), Index: int32(index), Val: val})
}
