package baselines

import (
	"umon/internal/flowkey"
	"umon/internal/measure"
)

// PersistCMS is the Persist-CMS baseline of §7.1: a persistent Count-Min
// sketch (Wei et al., SIGMOD'15) whose buckets approximate the *cumulative*
// count curve over time with an online piecewise-linear approximation
// (PLA). Rates are recovered by differencing consecutive cumulative
// estimates. The per-bucket segment budget comes from the memory sweep; when
// the online fit would exceed it, the error tolerance ε doubles and the
// existing knots are refit — the standard budget-bounded PLA adaptation.
type PersistCMS struct {
	frame       *cmFrame
	maxSegments int
	bucket      [][]*plaBucket
	sealed      bool
}

// plaSegment is one linear piece of the cumulative curve: starting at
// window offset t0 with value v0 and the given slope.
type plaSegment struct {
	t0    int64
	v0    float64
	slope float64
}

type plaBucket struct {
	w0  int64
	eps float64
	// Closed segments plus the live segment's corridor state.
	segments []plaSegment
	liveT0   int64
	liveV0   float64
	loSlope  float64
	hiSlope  float64
	lastT    int64
	lastV    float64
	cum      int64
	curW     int64 // window currently being accumulated
	curC     int64
	started  bool
}

// NewPersistCMS builds the baseline with the given Count-Min shape and
// per-bucket segment budget.
func NewPersistCMS(rows, width, maxSegments int, seed uint64) (*PersistCMS, error) {
	frame, err := newCMFrame(rows, width, seed)
	if err != nil {
		return nil, err
	}
	if maxSegments < 2 {
		maxSegments = 2
	}
	p := &PersistCMS{frame: frame, maxSegments: maxSegments}
	p.bucket = make([][]*plaBucket, rows)
	for r := range p.bucket {
		p.bucket[r] = make([]*plaBucket, width)
		for w := range p.bucket[r] {
			p.bucket[r][w] = &plaBucket{w0: -1, eps: 1024} // ε in bytes
		}
	}
	return p, nil
}

// Name implements measure.SeriesEstimator.
func (p *PersistCMS) Name() string { return "Persist-CMS" }

// Update implements measure.SeriesEstimator.
func (p *PersistCMS) Update(k flowkey.Key, w int64, v int64) {
	if p.sealed {
		return
	}
	for r := 0; r < p.frame.rows; r++ {
		p.bucket[r][p.frame.index(k, r)].update(w, v, p.maxSegments)
	}
}

func (b *plaBucket) update(w, v int64, maxSeg int) {
	if b.w0 < 0 {
		b.w0 = w
		b.curW = w
		b.curC = v
		return
	}
	if w <= b.curW {
		b.curC += v
		return
	}
	// Finish the open window: emit the cumulative point at the *end* of
	// that window, then open the new one.
	b.cum += b.curC
	b.addPoint(b.curW-b.w0+1, float64(b.cum), maxSeg)
	b.curW, b.curC = w, v
}

// addPoint feeds one (t, cumulative) point to the online PLA (the
// O'Rourke / swing-filter corridor algorithm).
func (b *plaBucket) addPoint(t int64, v float64, maxSeg int) {
	if !b.started {
		b.started = true
		b.liveT0, b.liveV0 = 0, 0
		b.loSlope, b.hiSlope = negInf, posInf
	}
	for {
		dt := float64(t - b.liveT0)
		if dt <= 0 {
			return
		}
		lo := (v - b.eps - b.liveV0) / dt
		hi := (v + b.eps - b.liveV0) / dt
		newLo, newHi := b.loSlope, b.hiSlope
		if lo > newLo {
			newLo = lo
		}
		if hi < newHi {
			newHi = hi
		}
		if newLo <= newHi {
			b.loSlope, b.hiSlope = newLo, newHi
			b.lastT, b.lastV = t, v
			return
		}
		// Corridor collapsed: close the live segment at the last point.
		b.closeLive()
		if len(b.segments)+1 > maxSeg { // +1 for the next live segment
			b.coarsen(maxSeg)
		}
		// Re-run the corridor test with the fresh segment.
	}
}

const (
	negInf = -1e300
	posInf = 1e300
)

func (b *plaBucket) closeLive() {
	slope := 0.0
	if b.loSlope > negInf && b.hiSlope < posInf {
		slope = (b.loSlope + b.hiSlope) / 2
	}
	b.segments = append(b.segments, plaSegment{t0: b.liveT0, v0: b.liveV0, slope: slope})
	b.liveT0 = b.lastT
	b.liveV0 = b.lastV
	b.loSlope, b.hiSlope = negInf, posInf
}

// coarsen doubles ε and refits the stored knots so the budget holds.
func (b *plaBucket) coarsen(maxSeg int) {
	b.eps *= 2
	// Extract knot points (segment starts plus the live start), then refit
	// greedily with the doubled tolerance.
	type pt struct {
		t int64
		v float64
	}
	knots := make([]pt, 0, len(b.segments)+1)
	for _, s := range b.segments {
		knots = append(knots, pt{s.t0, s.v0})
	}
	knots = append(knots, pt{b.liveT0, b.liveV0})
	b.segments = b.segments[:0]
	if len(knots) == 0 {
		return
	}
	curT0, curV0 := knots[0].t, knots[0].v
	lo, hi := negInf, posInf
	lastT, lastV := curT0, curV0
	for _, k := range knots[1:] {
		dt := float64(k.t - curT0)
		if dt <= 0 {
			continue
		}
		nl := (k.v - b.eps - curV0) / dt
		nh := (k.v + b.eps - curV0) / dt
		if nl > lo {
			lo = nl
		}
		if nh < hi {
			hi = nh
		}
		if lo > hi {
			slope := 0.0
			if lastT > curT0 {
				slope = (lastV - curV0) / float64(lastT-curT0)
			}
			b.segments = append(b.segments, plaSegment{curT0, curV0, slope})
			curT0, curV0 = lastT, lastV
			lo, hi = negInf, posInf
			dt = float64(k.t - curT0)
			if dt > 0 {
				lo = (k.v - b.eps - curV0) / dt
				hi = (k.v + b.eps - curV0) / dt
			}
		}
		lastT, lastV = k.t, k.v
	}
	b.liveT0, b.liveV0 = curT0, curV0
	b.loSlope, b.hiSlope = lo, hi
	b.lastT, b.lastV = lastT, lastV
	if len(b.segments) >= maxSeg {
		// Still over budget (pathological): drop oldest detail by merging
		// the first two segments.
		for len(b.segments) >= maxSeg && len(b.segments) >= 2 {
			s0, s1 := b.segments[0], b.segments[1]
			dt := s1.t0 - s0.t0
			slope := s0.slope
			if dt > 0 {
				slope = (s1.v0 - s0.v0) / float64(dt)
			}
			merged := plaSegment{s0.t0, s0.v0, slope}
			b.segments = append([]plaSegment{merged}, b.segments[2:]...)
		}
	}
}

// seal closes the in-flight window and live segment.
func (b *plaBucket) seal(maxSeg int) {
	if b.w0 < 0 {
		return
	}
	b.cum += b.curC
	b.addPoint(b.curW-b.w0+1, float64(b.cum), maxSeg)
	b.curC = 0
	if b.started {
		b.closeLive()
	}
}

// cumulativeAt evaluates the PLA at window offset t (clamped to ≥ 0 and
// monotone by construction of the fit, up to ε error).
func (b *plaBucket) cumulativeAt(t int64) float64 {
	if t <= 0 || len(b.segments) == 0 {
		return 0
	}
	// Find the segment containing t (segments are ordered by t0).
	lo, hi := 0, len(b.segments)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if b.segments[mid].t0 <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	s := b.segments[lo]
	v := s.v0 + s.slope*float64(t-s.t0)
	if v < 0 {
		v = 0
	}
	if v > float64(b.cum) {
		v = float64(b.cum)
	}
	return v
}

// Seal implements measure.SeriesEstimator.
func (p *PersistCMS) Seal() {
	if p.sealed {
		return
	}
	p.sealed = true
	for r := range p.bucket {
		for _, b := range p.bucket[r] {
			b.seal(p.maxSegments)
		}
	}
}

// QueryRange implements measure.SeriesEstimator: rate(t) = C(t+1) − C(t).
func (p *PersistCMS) QueryRange(k flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	curves := make([][]float64, p.frame.rows)
	for r := 0; r < p.frame.rows; r++ {
		b := p.bucket[r][p.frame.index(k, r)]
		if b.w0 < 0 {
			continue
		}
		cur := make([]float64, to-from)
		for w := from; w < to; w++ {
			off := w - b.w0
			rate := b.cumulativeAt(off+1) - b.cumulativeAt(off)
			if rate < 0 {
				rate = 0
			}
			cur[w-from] = rate
		}
		curves[r] = cur
	}
	return measure.MinCombine(int(to-from), curves...)
}

// MemoryBytes implements measure.SeriesEstimator: the segment budget at 12
// bytes per segment (t0 + v0 + slope, quantized) plus the bucket header.
func (p *PersistCMS) MemoryBytes() int64 {
	return int64(p.frame.rows) * int64(p.frame.width) * (8 + int64(p.maxSegments)*12)
}

// ReportBytes implements measure.SeriesEstimator.
func (p *PersistCMS) ReportBytes() int64 {
	var total int64
	for r := range p.bucket {
		for _, b := range p.bucket[r] {
			if b.w0 >= 0 {
				total += 8 + int64(len(b.segments))*12
			}
		}
	}
	return total
}
