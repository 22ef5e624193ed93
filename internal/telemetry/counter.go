package telemetry

import "sync/atomic"

// cacheLine is the assumed cache-line size; counters are padded to it so
// adjacent cells in a CounterVec (one per shard worker) never false-share.
const cacheLine = 64

// Counter is a monotonic event counter. All methods are lock-free and
// no-ops on a nil receiver, so an uninstrumented call site costs one nil
// check and nothing else. The struct occupies a full cache line so slabs
// of Counters (CounterVec) place each writer on its own line.
type Counter struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.n.Add(1)
	}
}

// Add adds d (d must be ≥ 0 to keep the counter monotonic).
func (c *Counter) Add(d int64) {
	if c != nil {
		c.n.Add(d)
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.n.Load()
}

func (c *Counter) snap() Snapshot { return Snapshot{Value: c.Value()} }

// Gauge is a last-value (or high-water-mark, via SetMax) metric with the
// same nil-receiver no-op contract as Counter.
type Gauge struct {
	n atomic.Int64
	_ [cacheLine - 8]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.n.Store(v)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — a
// lock-free high-water mark. The fast path (v not a new maximum) is a
// single atomic load.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.n.Load()
		if v <= cur {
			return
		}
		if g.n.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.n.Load()
}

func (g *Gauge) snap() Snapshot { return Snapshot{Value: g.Value()} }

// CounterVec is a sharded counter: one padded cell per shard so concurrent
// writers (e.g. one ingest worker per shard) increment without cache-line
// contention. Exposed as one labeled series per cell plus Sum for totals.
// A nil *CounterVec yields nil *Counters, composing the disabled path.
type CounterVec struct {
	cells []Counter
}

// At returns shard i's counter, nil when the vec is nil or i out of range.
func (v *CounterVec) At(i int) *Counter {
	if v == nil || i < 0 || i >= len(v.cells) {
		return nil
	}
	return &v.cells[i]
}

// Len reports the shard count (0 on nil).
func (v *CounterVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.cells)
}
