package analyzer

import (
	"umon/internal/flowkey"
	"umon/internal/measure"
)

// Event diagnosis (§2.2 B1/B2): with the event's flow set and the replayed
// rate curves, the analyzer can say *why* a link congested and whether a
// slow flow is host- or network-limited.

// EventKind classifies a congestion event by its traffic pattern.
type EventKind string

const (
	// KindIncast: many flows converged on the port at once.
	KindIncast EventKind = "incast"
	// KindCollision: a small number of heavy flows contended.
	KindCollision EventKind = "collision"
	// KindSingle: one flow alone overran the port (e.g. a burst into a
	// slower link).
	KindSingle EventKind = "single-flow"
)

// Diagnosis summarizes an event's cause/impact analysis.
type Diagnosis struct {
	Kind EventKind
	// Culprits are the flows that accelerated into the event (rate rising
	// at event start); Victims decelerated through it.
	Culprits []flowkey.Key
	Victims  []flowkey.Key
}

// DiagnoseEvent replays the event and classifies it. marginNs bounds the
// before/after context (default 250 µs).
func (a *Analyzer) DiagnoseEvent(ev Event, marginNs int64) Diagnosis {
	if marginNs <= 0 {
		marginNs = 250_000
	}
	d := Diagnosis{}
	switch {
	case len(ev.Flows) >= 8:
		d.Kind = KindIncast
	case len(ev.Flows) >= 2:
		d.Kind = KindCollision
	default:
		d.Kind = KindSingle
	}
	view := a.Replay(ev, marginNs)
	evStart := clampIdx(int(measure.WindowOf(ev.StartNs)-view.WindowStart), view.Windows)
	evEnd := clampIdx(int(measure.WindowOf(ev.EndNs)-view.WindowStart)+1, view.Windows)
	for _, f := range ev.Flows {
		curve := view.Curves[f]
		if len(curve) == 0 {
			continue
		}
		before := meanOf(curve[:evStart])
		during := meanOf(curve[evStart:evEnd])
		after := meanOf(curve[evEnd:])
		switch {
		case during > before*1.5+1 && during > 0:
			// The flow ramped up into the event: a contributor.
			d.Culprits = append(d.Culprits, f)
		case after < before*0.75 && before > 0:
			// The flow came out slower: a victim.
			d.Victims = append(d.Victims, f)
		}
	}
	return d
}

func clampIdx(i, n int) int {
	if i < 0 {
		return 0
	}
	if i > n {
		return n
	}
	return i
}

func meanOf(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
