package collect

import (
	"umon/internal/report"
	"umon/internal/telemetry"
)

// Stats is where a collector counts: each fact it counts — reports and
// mirrors admitted or dropped, evictions, routing selectivity, lifecycle
// latencies — has one handle here, which a registry exports and Status
// reads back. Build it with NewStats; a Stats belongs to one collector.
type Stats struct {
	// ReportsIngested counts decoded host reports admitted to the window.
	ReportsIngested *telemetry.Counter
	// EpochsIngested counts distinct epochs admitted to the window.
	EpochsIngested *telemetry.Counter
	// LateReports counts reports rejected because their epoch had already
	// been evicted from the window.
	LateReports *telemetry.Counter
	// Evictions counts Queryables dropped as the epoch window slid.
	Evictions *telemetry.Counter
	// WindowResident gauges the Queryables currently held in the window.
	WindowResident *telemetry.Gauge
	// MirrorsIngested counts mirror records folded into event clusters.
	MirrorsIngested *telemetry.Counter
	// LateMirrors counts mirrors dropped below the trim horizon (their
	// events were already emitted and released).
	LateMirrors *telemetry.Counter
	// EventsEmitted counts congestion events closed and delivered online.
	EventsEmitted *telemetry.Counter
	// DetectLagNs observes, per emitted event, how far the mirror watermark
	// had advanced past the event's end when it closed — the online
	// detection lag.
	DetectLagNs *telemetry.Histogram

	// Epoch-lifecycle stage latencies (wall-clock ns), decomposing the
	// report pipeline per (host, epoch): SealShipNs is host seal start →
	// sink ship, ShipAdmitNs is ship → window admission, AdmitDetectNs is
	// admission → first overlapping event emission, and SealDetectNs is the
	// end-to-end total — by construction the sum of the three stages, which
	// TestTraceStageHistogramsReconcile pins.
	SealShipNs    *telemetry.Histogram
	ShipAdmitNs   *telemetry.Histogram
	AdmitDetectNs *telemetry.Histogram
	SealDetectNs  *telemetry.Histogram

	// Query-plane counters. RouteVisited/RouteSkipped decompose every
	// QueryFlow's report fan-out: visited is how many resident reports the
	// routing index selected, skipped is how many it proved could not
	// answer — the selectivity that replaces the old full-window scan.
	RouteVisited *telemetry.Counter
	RouteSkipped *telemetry.Counter
	// SnapshotVersion/SnapshotPublishNs gauge the live window snapshot's
	// publication counter and wall stamp (see Collector.Snapshot).
	SnapshotVersion   *telemetry.Gauge
	SnapshotPublishNs *telemetry.Gauge

	// Decode is attached to every admitted Queryable (curve decode
	// hits/misses/evictions under the decode budget).
	Decode *report.QueryStats
}

// NewStats registers the collector metric set on reg. A nil reg yields nil,
// and a collector given nil Stats counts on a private registry.
func NewStats(reg *telemetry.Registry) *Stats {
	if reg == nil {
		return nil
	}
	return &Stats{
		ReportsIngested:   reg.Counter("umon_collect_reports_ingested_total", "host reports admitted to the epoch window"),
		EpochsIngested:    reg.Counter("umon_collect_epochs_ingested_total", "distinct epochs admitted to the window"),
		LateReports:       reg.Counter("umon_collect_late_reports_total", "reports rejected for already-evicted epochs"),
		Evictions:         reg.Counter("umon_collect_evictions_total", "Queryables evicted as the epoch window slid"),
		WindowResident:    reg.Gauge("umon_collect_window_resident", "Queryables currently resident in the window"),
		MirrorsIngested:   reg.Counter("umon_collect_mirrors_ingested_total", "mirror records folded into event clusters"),
		LateMirrors:       reg.Counter("umon_collect_late_mirrors_total", "mirrors dropped below the trim horizon"),
		EventsEmitted:     reg.Counter("umon_collect_events_emitted_total", "congestion events closed and emitted online"),
		DetectLagNs:       reg.Histogram("umon_collect_detect_lag_ns", "watermark lead past event end at emission (ns)"),
		SealShipNs:        reg.Histogram("umon_trace_seal_ship_ns", "epoch lifecycle: host seal start to sink ship (wall ns)"),
		ShipAdmitNs:       reg.Histogram("umon_trace_ship_admit_ns", "epoch lifecycle: sink ship to window admission (wall ns)"),
		AdmitDetectNs:     reg.Histogram("umon_trace_admit_detect_ns", "epoch lifecycle: admission to first overlapping event emission (wall ns)"),
		SealDetectNs:      reg.Histogram("umon_trace_seal_detect_ns", "epoch lifecycle: seal to detection end-to-end (wall ns)"),
		RouteVisited:      reg.Counter("umon_collect_query_reports_visited_total", "resident reports the routing index selected for flow queries"),
		RouteSkipped:      reg.Counter("umon_collect_query_reports_skipped_total", "resident reports the routing index proved unable to answer"),
		SnapshotVersion:   reg.Gauge("umon_collect_snapshot_version", "publication counter of the live window snapshot"),
		SnapshotPublishNs: reg.Gauge("umon_collect_snapshot_publish_unix_ns", "wall stamp of the live window snapshot's publication"),
		Decode:            report.NewQueryStats(reg),
	}
}
