package netsim

import "umon/internal/telemetry"

// SimStats is the simulator's operational telemetry: datapath counters a
// running simulation exposes through internal/telemetry. All fields no-op
// when nil, and a Network built without stats carries the zero SimStats —
// the hot paths (enqueue, newPacket) pay one nil check per site, nothing
// more (see BenchmarkEngineEventLoop and the fig goldens for proof that
// behaviour and output are unchanged).
type SimStats struct {
	// Events counts engine events executed (folded in by the engine in
	// 4096-event chunks and at Run exit).
	Events *telemetry.Counter
	// EventsByKind counts events *scheduled* per event kind (indexed by
	// the engine's eventKind: func, finish_tx, arrive, inject, start,
	// dcqcn_alpha, dcqcn_rate, rto), flushed on the same cadence as Events
	// from plain per-engine accumulators — the scheduling hot path never
	// touches an atomic.
	EventsByKind *telemetry.CounterVec
	// WheelDepth is the high-water mark of timing-wheel occupancy (the
	// current-tick dispatch heap plus all in-span buckets).
	WheelDepth *telemetry.Gauge
	// OverflowDepth is the high-water mark of the far-future overflow
	// heap (events beyond the wheel span: RTOs, flow starts, long timers).
	OverflowDepth *telemetry.Gauge
	// FreeHit / FreeMiss split Packet allocations between free-list reuse
	// and fresh heap allocations — the free list's hit rate.
	FreeHit  *telemetry.Counter
	FreeMiss *telemetry.Counter
	// ECNMarks counts CE marks applied by RED at switch egress queues.
	ECNMarks *telemetry.Counter
	// Drops counts tail drops (any port).
	Drops *telemetry.Counter
	// QueueHWM tracks the maximum switch egress queue depth in bytes — a
	// high-water-mark gauge.
	QueueHWM *telemetry.Gauge
}

// NewSimStats registers the simulator metric set on reg (nil reg yields
// nil, the disabled configuration).
func NewSimStats(reg *telemetry.Registry) *SimStats {
	if reg == nil {
		return nil
	}
	return &SimStats{
		Events: reg.Counter("umon_netsim_events_total", "discrete events executed by the simulation engine"),
		EventsByKind: reg.CounterVecL("umon_netsim_events_scheduled_total",
			"events scheduled on the engine by event kind", "kind", eventKindNames[:]),
		WheelDepth: reg.Gauge("umon_netsim_wheel_depth_high_water",
			"maximum timing-wheel occupancy observed (current-tick heap + in-span buckets)"),
		OverflowDepth: reg.Gauge("umon_netsim_overflow_depth_high_water",
			"maximum overflow-heap depth observed (events beyond the wheel span)"),
		FreeHit:  reg.Counter("umon_netsim_pktfree_hits_total", "packets drawn from the free list"),
		FreeMiss: reg.Counter("umon_netsim_pktfree_misses_total", "packets freshly heap-allocated"),
		ECNMarks: reg.Counter("umon_netsim_ecn_marks_total", "packets CE-marked by RED at switch egress"),
		Drops:    reg.Counter("umon_netsim_drops_total", "packets tail-dropped at egress queues"),
		QueueHWM: reg.Gauge("umon_netsim_queue_high_water_bytes", "maximum switch egress queue depth observed"),
	}
}
