// Package measure defines the common interface implemented by every
// flow-rate measurement scheme in the repository (WaveSketch and the
// baselines of §7.1) plus the ground-truth series builder used to grade
// them.
//
// All schemes see the same input: (flow, absolute window id, byte count)
// updates, one per packet, where window id = timestamp >> WindowShift.
package measure

import (
	"sort"

	"umon/internal/flowkey"
)

// DefaultWindowShift turns a nanosecond timestamp into the paper's 8.192 µs
// observation window by a 13-bit right shift (§7.1: "it can easily get the
// window ID from the nanosecond-level hardware timestamp by right-shifting
// 13 bits").
const DefaultWindowShift = 13

// WindowNanos is the span of one default window in nanoseconds.
const WindowNanos = 1 << DefaultWindowShift

// WindowOf maps a nanosecond timestamp to its absolute window id.
func WindowOf(ns int64) int64 { return ns >> DefaultWindowShift }

// SeriesEstimator measures per-flow, per-window byte counts.
type SeriesEstimator interface {
	// Name identifies the scheme in reports ("WaveSketch-Ideal", …).
	Name() string
	// Update records v bytes for flow f in absolute window w. Updates
	// arrive in non-decreasing window order per device.
	Update(f flowkey.Key, w int64, v int64)
	// Seal ends the measurement period. It must be called once before
	// QueryRange; implementations flush in-flight state.
	Seal()
	// QueryRange estimates the byte counts of flow f for every window in
	// [from, to), one entry per window.
	QueryRange(f flowkey.Key, from, to int64) []float64
	// MemoryBytes reports the device memory footprint of the scheme.
	MemoryBytes() int64
	// ReportBytes reports the size of the upload to the analyzer for one
	// measurement period.
	ReportBytes() int64
}

// Series is a dense per-window count sequence starting at window Start.
type Series struct {
	Start  int64
	Counts []int64
}

// End returns one past the last window of the series.
func (s *Series) End() int64 { return s.Start + int64(len(s.Counts)) }

// Total sums all counts.
func (s *Series) Total() int64 {
	var t int64
	for _, c := range s.Counts {
		t += c
	}
	return t
}

// GroundTruth accumulates exact per-flow window series.
type GroundTruth struct {
	flows map[flowkey.Key]*Series
	// last short-circuits the map lookup when consecutive updates hit the
	// same flow (egress streams are bursty, so this is the common case).
	lastKey flowkey.Key
	last    *Series
}

// NewGroundTruth returns an empty ground-truth accumulator.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{flows: make(map[flowkey.Key]*Series)}
}

// Update records v bytes for flow f in absolute window w. Unlike the
// estimators, ground truth accepts any window order.
func (g *GroundTruth) Update(f flowkey.Key, w int64, v int64) {
	s := g.last
	if s == nil || f != g.lastKey {
		var ok bool
		s, ok = g.flows[f]
		if !ok {
			s = &Series{Start: w, Counts: make([]int64, 1, 8)}
			g.flows[f] = s
		}
		g.lastKey, g.last = f, s
	}
	s.add(w, v)
}

// add folds v into window w, extending the series as needed. Forward
// extension grows the backing array geometrically and zero-fills in place,
// so steady-state updates allocate nothing.
func (s *Series) add(w, v int64) {
	switch {
	case w < s.Start:
		pad := make([]int64, s.Start-w)
		s.Counts = append(pad, s.Counts...)
		s.Start = w
	case w >= s.End():
		n := int(w-s.Start) + 1
		if n > cap(s.Counts) {
			grown := make([]int64, len(s.Counts), max(n, 2*cap(s.Counts)))
			copy(grown, s.Counts)
			s.Counts = grown
		}
		tail := s.Counts[len(s.Counts):n]
		for i := range tail {
			tail[i] = 0
		}
		s.Counts = s.Counts[:n]
	}
	s.Counts[w-s.Start] += v
}

// Flow returns the exact series of f, or nil if unseen.
func (g *GroundTruth) Flow(f flowkey.Key) *Series { return g.flows[f] }

// Flows returns all flow keys in unspecified order.
func (g *GroundTruth) Flows() []flowkey.Key {
	out := make([]flowkey.Key, 0, len(g.flows))
	for k := range g.flows {
		out = append(out, k)
	}
	return out
}

// SortedFlows returns all flow keys in ascending key order — a
// deterministic sequence for consumers whose float accumulation order (and
// therefore rendered output) must not depend on map iteration.
func (g *GroundTruth) SortedFlows() []flowkey.Key {
	out := g.Flows()
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Len reports the number of distinct flows.
func (g *GroundTruth) Len() int { return len(g.flows) }
