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

// Stats summarizes a generated workload (Table 2 rows).
type Stats struct {
	Flows       int
	TotalBytes  int64
	Packets     int64 // at the given MTU payload size
	MeanBytes   float64
	OfferedLoad float64
}

// Summarize computes workload statistics assuming `payload`-byte packets.
func Summarize(flows []Flow, cfg Config, payload int64) Stats {
	var s Stats
	s.Flows = len(flows)
	for _, f := range flows {
		s.TotalBytes += f.Bytes
		s.Packets += (f.Bytes + payload - 1) / payload
	}
	if s.Flows > 0 {
		s.MeanBytes = float64(s.TotalBytes) / float64(s.Flows)
	}
	den := float64(cfg.Hosts) * cfg.LinkBps * float64(cfg.DurationNs) / 1e9
	if den > 0 {
		s.OfferedLoad = float64(s.TotalBytes) * 8 / den
	}
	return s
}
