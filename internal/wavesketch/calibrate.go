package wavesketch

import (
	"math"
	"sort"

	"umon/internal/wavelet"
)

// Calibrate derives the hardware-variant thresholds from sample counter
// sequences, following §4.3: run the ideal (CPU) WaveSketch over traces
// sampled from the target scenario, record the minimum weighted magnitude
// held in each bucket's top-K priority queue, and take the median as the
// threshold reference. The weighted median is then converted to the two
// shifted-integer thresholds the parity queues compare against:
//
//	even levels: shifted = |d| >> (l/2)     = weighted·√2
//	odd  levels: shifted = |d| >> ((l-1)/2) = weighted·2
func Calibrate(samples [][]int64, levels, k int) (thrEven, thrOdd int64) {
	var mins []float64
	for _, seq := range samples {
		if len(seq) == 0 {
			continue
		}
		st := wavelet.NewStream(levels)
		sink := wavelet.NewTopKSink(k)
		for i, v := range seq {
			st.Push(i, v, sink)
		}
		st.Finish(sink)
		// Only buckets whose queue actually filled exert selection
		// pressure; half-empty queues would bias the threshold to zero.
		if sink.Len() >= k {
			mins = append(mins, sink.MinWeighted())
		}
	}
	if len(mins) == 0 {
		return 0, 0 // no pressure observed: keep everything
	}
	sort.Float64s(mins)
	med := mins[len(mins)/2]
	thrEven = int64(math.Round(med * math.Sqrt2))
	thrOdd = int64(math.Round(med * 2))
	return thrEven, thrOdd
}

// NewHardware builds a hardware-variant basic WaveSketch whose thresholds
// are calibrated from the given sample sequences.
func NewHardware(cfg Config, samples [][]int64) (*Basic, error) {
	cfg.Variant = Hardware
	cfg.ThresholdEven, cfg.ThresholdOdd = Calibrate(samples, cfg.Levels, cfg.K)
	return NewBasic(cfg)
}
