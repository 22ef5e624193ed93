// Package metrics implements the accuracy metrics of the paper's
// Appendix E — Euclidean distance, cosine similarity, energy similarity and
// average relative error — plus the recall/coverage counters used by the
// µEvent evaluation (§7.2).
//
// This package answers "how close is the estimate to the truth": its
// functions compare measurement output against ground truth and appear in
// the regenerated tables. It is deliberately separate from
// internal/telemetry, which answers "what is the system doing right now" —
// operational counters (samples ingested, events simulated, cache hits)
// with no ground truth involved. Accuracy math belongs here; run-time
// observability belongs in telemetry.
package metrics

import "math"

// Euclidean is the L2 distance between the true and estimated curves:
// √Σ(f(t)−f̂(t))². Lower is better.
func Euclidean(truth, est []float64) float64 {
	n := matchLen(truth, est)
	var s float64
	for i := 0; i < n; i++ {
		d := truth[i] - est[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Cosine is the cosine similarity of the two curves viewed as vectors.
// 1 is a perfect match. Two all-zero curves are defined to match (1);
// exactly one all-zero curve gives 0.
func Cosine(truth, est []float64) float64 {
	n := matchLen(truth, est)
	var dot, na, nb float64
	for i := 0; i < n; i++ {
		dot += truth[i] * est[i]
		na += truth[i] * truth[i]
		nb += est[i] * est[i]
	}
	switch {
	case na == 0 && nb == 0:
		return 1
	case na == 0 || nb == 0:
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// Energy is the energy similarity: min(E, Ê)/max(E, Ê) expressed through
// the square-root energies as in Appendix E. 1 is a perfect match.
func Energy(truth, est []float64) float64 {
	n := matchLen(truth, est)
	var ea, eb float64
	for i := 0; i < n; i++ {
		ea += truth[i] * truth[i]
		eb += est[i] * est[i]
	}
	switch {
	case ea == 0 && eb == 0:
		return 1
	case ea == 0 || eb == 0:
		return 0
	}
	if ea <= eb {
		return math.Sqrt(ea) / math.Sqrt(eb)
	}
	return math.Sqrt(eb) / math.Sqrt(ea)
}

// ARE is the average relative error: (1/n)Σ|f̂(t)−f(t)|/f(t). Windows with
// zero truth are skipped in the average (the paper's curves are compared on
// the flows' active spans); if every window is zero-truth, ARE is 0 when the
// estimate is also all-zero and +Inf otherwise.
func ARE(truth, est []float64) float64 {
	n := matchLen(truth, est)
	var sum float64
	var counted int
	var estExtra bool
	for i := 0; i < n; i++ {
		if truth[i] == 0 {
			if est[i] != 0 {
				estExtra = true
			}
			continue
		}
		sum += math.Abs(est[i]-truth[i]) / truth[i]
		counted++
	}
	if counted == 0 {
		if estExtra {
			return math.Inf(1)
		}
		return 0
	}
	return sum / float64(counted)
}

func matchLen(a, b []float64) int {
	if len(a) < len(b) {
		return len(a)
	}
	return len(b)
}

// Mean averages a slice, returning 0 for empty input.
func Mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// MeanFinite averages the finite entries only (ARE can produce +Inf for
// pathological flows; the paper averages per-flow metrics over a workload).
func MeanFinite(vals []float64) float64 {
	var s float64
	var n int
	for _, v := range vals {
		if !math.IsInf(v, 0) && !math.IsNaN(v) {
			s += v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return s / float64(n)
}

// CurveSet aggregates the four Appendix-E metrics over many flows,
// producing the workload-level averages the figures plot.
type CurveSet struct {
	euclidean []float64
	are       []float64
	cosine    []float64
	energy    []float64
}

// Add grades one flow's estimate against its ground truth.
func (c *CurveSet) Add(truth, est []float64) {
	c.euclidean = append(c.euclidean, Euclidean(truth, est))
	c.are = append(c.are, ARE(truth, est))
	c.cosine = append(c.cosine, Cosine(truth, est))
	c.energy = append(c.energy, Energy(truth, est))
}

// Len reports the number of graded flows.
func (c *CurveSet) Len() int { return len(c.euclidean) }

// Summary holds the averaged metrics.
type Summary struct {
	Euclidean float64
	ARE       float64
	Cosine    float64
	Energy    float64
	Flows     int
}

// Summarize averages the per-flow metrics (finite entries only for ARE).
func (c *CurveSet) Summarize() Summary {
	return Summary{
		Euclidean: Mean(c.euclidean),
		ARE:       MeanFinite(c.are),
		Cosine:    Mean(c.cosine),
		Energy:    Mean(c.energy),
		Flows:     len(c.euclidean),
	}
}
