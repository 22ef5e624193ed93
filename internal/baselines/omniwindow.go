package baselines

import (
	"umon/internal/flowkey"
	"umon/internal/measure"
)

// OmniWindow is the OmniWindow-Avg baseline of §7.1: each bucket divides
// the measurement period into m coarse sub-windows of plain counters (the
// memory budget fixes m), and the rate of every microsecond-level window is
// reported as its sub-window's average. This is the only baseline besides
// WaveSketch that is data-plane-implementable, and the one Figure 13
// contrasts against.
type OmniWindow struct {
	frame *cmFrame
	// subWindows is m: counters per bucket.
	subWindows int
	// granularity g: base windows per sub-window, derived from the expected
	// measurement-period length.
	granularity int64
	bucket      [][]*owBucket
	sealed      bool
}

type owBucket struct {
	w0     int64
	counts []int64
}

// NewOmniWindow builds the baseline. periodWindows is the measurement
// period expressed in base (8.192 µs) windows; with m sub-windows each
// spans ⌈period/m⌉ base windows.
func NewOmniWindow(rows, width, subWindows int, periodWindows int64, seed uint64) (*OmniWindow, error) {
	frame, err := newCMFrame(rows, width, seed)
	if err != nil {
		return nil, err
	}
	if subWindows < 1 {
		subWindows = 1
	}
	g := (periodWindows + int64(subWindows) - 1) / int64(subWindows)
	if g < 1 {
		g = 1
	}
	o := &OmniWindow{frame: frame, subWindows: subWindows, granularity: g}
	o.bucket = make([][]*owBucket, rows)
	for r := range o.bucket {
		o.bucket[r] = make([]*owBucket, width)
		for w := range o.bucket[r] {
			o.bucket[r][w] = &owBucket{w0: -1}
		}
	}
	return o, nil
}

// Name implements measure.SeriesEstimator.
func (o *OmniWindow) Name() string { return "OmniWindow-Avg" }

// Update implements measure.SeriesEstimator.
func (o *OmniWindow) Update(k flowkey.Key, w int64, v int64) {
	if o.sealed {
		return
	}
	for r := 0; r < o.frame.rows; r++ {
		b := o.bucket[r][o.frame.index(k, r)]
		if b.w0 < 0 {
			b.w0 = w
		}
		off := (w - b.w0) / o.granularity
		if off < 0 {
			off = 0
		}
		for int64(len(b.counts)) <= off {
			if len(b.counts) >= o.subWindows {
				off = int64(o.subWindows) - 1 // clamp past-period traffic
				break
			}
			b.counts = append(b.counts, 0)
		}
		b.counts[off] += v
	}
}

// Seal implements measure.SeriesEstimator (no flush needed).
func (o *OmniWindow) Seal() { o.sealed = true }

// QueryRange implements measure.SeriesEstimator.
func (o *OmniWindow) QueryRange(k flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	curves := make([][]float64, o.frame.rows)
	for r := 0; r < o.frame.rows; r++ {
		b := o.bucket[r][o.frame.index(k, r)]
		if b.w0 < 0 {
			continue
		}
		cur := make([]float64, to-from)
		for w := from; w < to; w++ {
			off := w - b.w0
			if off < 0 {
				continue
			}
			sw := off / o.granularity
			if sw >= int64(len(b.counts)) {
				continue
			}
			cur[w-from] = float64(b.counts[sw]) / float64(o.granularity)
		}
		curves[r] = cur
	}
	return measure.MinCombine(int(to-from), curves...)
}

// MemoryBytes implements measure.SeriesEstimator: m 4-byte counters plus
// the w0 header per bucket.
func (o *OmniWindow) MemoryBytes() int64 {
	return int64(o.frame.rows) * int64(o.frame.width) * (4 + int64(o.subWindows)*4)
}

// ReportBytes implements measure.SeriesEstimator.
func (o *OmniWindow) ReportBytes() int64 {
	var total int64
	for r := range o.bucket {
		for _, b := range o.bucket[r] {
			if b.w0 >= 0 {
				total += 4 + int64(len(b.counts))*4
			}
		}
	}
	return total
}
