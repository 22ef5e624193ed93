package measure

// Range extracts [from, to) as float64, zero-filled outside the series.
func (s *Series) Range(from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	for w := from; w < to; w++ {
		if w >= s.Start && w < s.End() {
			out[w-from] = float64(s.Counts[w-s.Start])
		}
	}
	return out
}

// CounterWindows reports Σ_f n(f, δ): the total number of active-time
// counters needed at a window granularity of `windows` base windows per
// counter (the N(δ) quantity behind Figure 3).
func (g *GroundTruth) CounterWindows(windows int64) int64 {
	if windows <= 0 {
		windows = 1
	}
	var n int64
	for _, s := range g.flows {
		span := int64(len(s.Counts))
		n += (span + windows - 1) / windows
	}
	return n
}
