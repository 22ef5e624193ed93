package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. BENCHMARK.json lists the
// same names, units, directions and bounds (the smoke test checks that).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the baseline median by which the metric may
	// worsen before it counts as a regression (end-to-end metrics only).
	Bound float64
	// Exact metrics are functions of the seed alone: two runs of one seed
	// must repeat them bit for bit.
	Exact bool
}

// endToEnd are the metrics an operator of the system sees. They always
// come from an untraced run.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "pipeline_mpps", Unit: "Mpkt/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_bytes_per_pkt", Unit: "B", Better: "lower", Bound: 0.15},
	{Name: "resident_mb", Unit: "MB", Better: "lower", Bound: 0.10},
	{Name: "report_mbps_per_host", Unit: "Mbit/s", Better: "lower", Bound: 0.05, Exact: true},
	{Name: "curve_cosine", Unit: "ratio", Better: "higher", Bound: 0.005, Exact: true},
	{Name: "event_recall", Unit: "ratio", Better: "higher", Bound: 0.01, Exact: true},
	{Name: "admit_kreports_per_s", Unit: "kreports/s", Better: "higher", Bound: 0.25},
	{Name: "query_us_p50", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "sim_mevents_per_s", Unit: "Mev/s", Better: "higher", Bound: 0.25},
}

// perLayer are the single-layer metrics of a traced run, named
// <package>.<what>. They have no bound: they explain a movement of an
// end-to-end metric, they do not judge it.
var perLayer = []metricDef{
	{Name: "netsim.run_s", Unit: "s", Better: "lower"},
	{Name: "netsim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.packets", Unit: "count", Better: "higher", Exact: true},
	{Name: "netsim.ce_marks", Unit: "count", Better: "lower", Exact: true},
	{Name: "netsim.mevents_per_s", Unit: "Mev/s", Better: "higher"},
	{Name: "netsim.shards2_speedup", Unit: "ratio", Better: "higher"},
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.flows", Unit: "count", Better: "higher", Exact: true},
	{Name: "wavesketch.update_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "wavesketch.updates", Unit: "count", Better: "higher"},
	{Name: "wavesketch.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "wavesketch.curve_are", Unit: "ratio", Better: "lower", Exact: true},
	{Name: "core.seal_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.seal_us_p99", Unit: "us", Better: "lower"},
	{Name: "core.seals", Unit: "count", Better: "higher"},
	{Name: "core.seal_busy_share", Unit: "ratio", Better: "lower"},
	{Name: "core.ship_us_p50", Unit: "us", Better: "lower"},
	{Name: "core.ship_errors", Unit: "count", Better: "lower"},
	{Name: "core.switch_ns_per_ce", Unit: "ns", Better: "lower"},
	{Name: "core.mirrors_emitted", Unit: "count", Better: "higher"},
	{Name: "report.bytes_per_report_p50", Unit: "B", Better: "lower", Exact: true},
	{Name: "report.bytes_per_report_p99", Unit: "B", Better: "lower", Exact: true},
	{Name: "report.frame_read_us_p50", Unit: "us", Better: "lower"},
	{Name: "report.decode_us_p50", Unit: "us", Better: "lower"},
	{Name: "report.decode_us_p99", Unit: "us", Better: "lower"},
	{Name: "report.bad_frames", Unit: "count", Better: "lower"},
	{Name: "report.crc_errors", Unit: "count", Better: "lower"},
	{Name: "collect.admit_us_p50", Unit: "us", Better: "lower"},
	{Name: "collect.admit_us_p99", Unit: "us", Better: "lower"},
	{Name: "collect.admits", Unit: "count", Better: "higher"},
	{Name: "collect.evictions", Unit: "count", Better: "lower"},
	{Name: "collect.late_reports", Unit: "count", Better: "lower"},
	{Name: "collect.mirror_ns_per_mirror", Unit: "ns", Better: "lower"},
	{Name: "collect.mirrors", Unit: "count", Better: "higher"},
	{Name: "collect.late_mirrors", Unit: "count", Better: "lower"},
	{Name: "collect.detect_lag_us_p50", Unit: "us", Better: "lower", Exact: true},
	{Name: "collect.detect_lag_us_p99", Unit: "us", Better: "lower", Exact: true},
	{Name: "collect.poll_us_p50", Unit: "us", Better: "lower"},
	{Name: "collect.poll_us_p99", Unit: "us", Better: "lower"},
	{Name: "collect.polls", Unit: "count", Better: "higher"},
	{Name: "collect.events_emitted", Unit: "count", Better: "higher"},
	{Name: "collect.replay_us_p50", Unit: "us", Better: "lower"},
	{Name: "collect.replay_us_p99", Unit: "us", Better: "lower"},
	{Name: "collect.replays", Unit: "count", Better: "higher"},
	{Name: "collect.query_kqps", Unit: "kq/s", Better: "higher"},
	{Name: "collect.query_us_p99", Unit: "us", Better: "lower"},
	{Name: "collect.query_us_hot_p50", Unit: "us", Better: "lower"},
	{Name: "collect.query_us_cold_p50", Unit: "us", Better: "lower"},
	{Name: "collect.route_visited_per_query", Unit: "reports", Better: "lower"},
	{Name: "collect.writer_late_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "analyzer.detect_ms", Unit: "ms", Better: "lower"},
	{Name: "analyzer.events", Unit: "count", Better: "higher", Exact: true},
	{Name: "pcapio.ingest_ns_per_mirror", Unit: "ns", Better: "lower"},
	{Name: "opsapi.query_flow_us_p50", Unit: "us", Better: "lower"},
	{Name: "opsapi.replay_us_p50", Unit: "us", Better: "lower"},
	{Name: "opsapi.status_us_p50", Unit: "us", Better: "lower"},
	{Name: "runtime.allocs_per_kpkt", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gomaxprocs", Unit: "count", Better: "higher"},
	{Name: "driver.self_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// value is one reported metric in the form the result line carries.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one run under the registry's names.
type metricSet map[string]float64

// render pairs every metric of defs with its unit; a metric the run did
// not set is reported as missing by the caller's check.
func (m metricSet) render(defs []metricDef) (map[string]value, []string) {
	out := make(map[string]value, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := m[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = value{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// quantile returns the q-quantile (0..1) of vals by nearest rank on a
// sorted copy; 0 for no samples.
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rank(len(s), q)]
}

func rank(n int, q float64) int {
	i := int(math.Ceil(q*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }

// fastQuartile returns the quartile of vals on the fast side: the third
// quartile of rates (higher), the first of times. Whatever else the machine
// is doing only ever slows a sample down, never speeds it up, so the fast
// side of the samples of a run is where the program's own speed shows; the
// quartile, not the extreme, so that one lucky sample (a round a collection
// cycle happened to miss) does not set the figure. Disturbances that cover
// up to three quarters of a run leave it alone.
func fastQuartile(vals []float64, higher bool) float64 {
	if !higher {
		return quantile(vals, 0.25)
	}
	neg := make([]float64, len(vals))
	for i, v := range vals {
		neg[i] = -v
	}
	return -quantile(neg, 0.25) // the same rank from the other end
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method), so the spread this program reports is the one the harness sees.
func quartiles(vals []float64) (q1, q2, q3 float64) {
	n := len(vals)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return vals[0], vals[0], vals[0]
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		frac := pos - float64(j)
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return at(1), at(2), at(3)
}

// nsToUs converts a slice of nanosecond samples to microseconds.
func nsToUs(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e3
	}
	return out
}
