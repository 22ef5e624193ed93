package telemetry

import (
	"math/bits"
	"sync/atomic"
)

// histBuckets is the bucket count: bucket b holds observations v with
// bits.Len64(v) == b, i.e. v in [2^(b-1), 2^b − 1]; bucket 0 holds v ≤ 0.
// 65 buckets cover the whole non-negative int64 range.
const histBuckets = 65

// Histogram is a power-of-two-bucketed distribution (latencies in
// nanoseconds, batch sizes, fan-out widths). Recording is lock-free —
// three atomic adds, no mutex, no allocation — and a nil receiver
// no-ops, so uninstrumented sites cost one nil check. Bucket boundaries
// double, so quantile estimates are upper bounds within a factor of 2:
// the right trade for an always-on histogram on a hot path.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	b := 0
	if v > 0 {
		b = bits.Len64(uint64(v))
	}
	h.buckets[b].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snap renders cumulative buckets up to the highest non-empty one; empty
// histograms expose no buckets (just count/sum at 0).
func (h *Histogram) snap() Snapshot {
	s := Snapshot{Count: h.Count(), Sum: h.Sum()}
	hi := -1
	var counts [histBuckets]int64
	for b := 0; b < histBuckets; b++ {
		counts[b] = h.buckets[b].Load()
		if counts[b] > 0 {
			hi = b
		}
	}
	cum := int64(0)
	for b := 0; b <= hi; b++ {
		cum += counts[b]
		le := int64(0)
		if b > 0 {
			if b >= 63 {
				le = int64(^uint64(0) >> 1) // avoid overflow at the top buckets
			} else {
				le = (1 << b) - 1
			}
		}
		s.Buckets = append(s.Buckets, BucketCount{Le: le, Count: cum})
	}
	return s
}

// Quantile returns an upper estimate of the q-quantile (q in [0, 1]) from
// the power-of-two buckets: the upper bound of the bucket where the
// cumulative count crosses q, so within a factor of 2 of the true value.
// Returns 0 on a nil or empty histogram.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	return quantileLe(h.snap(), q)
}
