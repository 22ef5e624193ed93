// Package baselines implements the three comparison schemes of §7.1 —
// the Fourier transform scheme, OmniWindow-Avg and Persist-CMS — behind
// measure.SeriesEstimator, the interface the accuracy figures grade a
// WaveSketch through (by its report), so they sweep all schemes at equal
// memory.
package baselines

import "math"

// fft computes the in-place iterative radix-2 Cooley–Tukey FFT of x, whose
// length must be a power of two. inverse=true computes the unscaled inverse
// transform (the caller divides by n).
func fft(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := 2 * math.Pi / float64(length)
		if !inverse {
			ang = -ang
		}
		wl := complex(math.Cos(ang), math.Sin(ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// nextPow2 returns the smallest power of two ≥ n (minimum 1).
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}
