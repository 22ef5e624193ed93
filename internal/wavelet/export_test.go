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
