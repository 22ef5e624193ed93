package workload

// EstimateDurations approximates flow active times without a simulation by
// assuming each flow progresses at the contention-discounted share
// linkBps×(1−load) of its host link — large flows stretch over milliseconds
// under load, which is what drives Figure 3's amplification.
func EstimateDurations(flows []Flow, linkBps, load float64) []int64 {
	eff := linkBps * (1 - load)
	if eff <= 0 {
		eff = linkBps
	}
	out := make([]int64, len(flows))
	for i, f := range flows {
		out[i] = int64(float64(f.Bytes*8) / eff * 1e9)
	}
	return out
}
