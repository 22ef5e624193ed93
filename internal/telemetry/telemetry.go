// Package telemetry is the repository's operational-metrics layer: what
// the pipeline is *doing* at runtime — event rates, buffer reuse, cache
// hit rates, per-stage latency — as opposed to how *accurate* its
// answers are. The accuracy math of the paper's Appendix E (ARE, cosine
// similarity, recall, …) lives in internal/metrics and grades estimates
// against ground truth offline; this package counts events on the live
// datapath and exposes them while the process runs.
//
// The design constraint, following the "lean algorithms" line of work, is
// that instrumentation must cost nothing when disabled: every metric type
// is a pointer whose methods no-op on a nil receiver, so an uninstrumented
// run performs a single predictable nil check per site — no allocation, no
// atomics, no branches beyond the check (≤2 ns/op, pinned by
// BenchmarkTelemetryNoop* and TestDisabledPathAllocs). Enabling telemetry
// is therefore a wiring decision made once at startup (pass a *Registry),
// not a per-call flag.
//
// A Registry is a named set of metrics with a snapshot API and three
// exposition formats: Prometheus text (WritePrometheus, served at
// /metrics), expvar-style JSON (WriteJSON, served at /vars) and a human
// end-of-run summary (WriteSummary, the -telemetry-dump output). A nil
// *Registry is valid everywhere and yields nil metrics, which is how the
// disabled path composes through constructors.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a metric for exposition.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "counter"
}

// metric is the exposition-side view of a registered metric.
type metric interface {
	// snap returns the metric's current values. Histograms fill Count,
	// Sum and Buckets; counters and gauges fill Value.
	snap() Snapshot
}

// entry is one registered series: a metric family name, an optional
// label pair rendered into the series name, and the live metric.
type entry struct {
	family string
	labels string // `key="value"` (no braces), empty for unlabeled series
	help   string
	kind   Kind
	m      metric
}

func (e *entry) series() string {
	if e.labels == "" {
		return e.family
	}
	return e.family + "{" + e.labels + "}"
}

// Registry is a named collection of metrics. All methods are safe for
// concurrent use, and every method is a no-op (returning nil metrics) on a
// nil receiver — the disabled-telemetry path.
type Registry struct {
	mu      sync.Mutex
	entries []*entry
	byName  map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*entry)}
}

// register adds (or returns the existing) series under family+labels.
// Registration is idempotent: asking twice for the same series returns the
// same metric, so independent components can share counters by name.
func (r *Registry) register(family, labels, help string, kind Kind, build func() metric) metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	name := family
	if labels != "" {
		name = family + "{" + labels + "}"
	}
	if e, ok := r.byName[name]; ok {
		return e.m
	}
	e := &entry{family: family, labels: labels, help: help, kind: kind, m: build()}
	r.entries = append(r.entries, e)
	r.byName[name] = e
	return e.m
}

// Counter registers (or fetches) a monotonic counter.
func (r *Registry) Counter(family, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(family, "", help, KindCounter, func() metric { return new(Counter) }).(*Counter)
}

// CounterL registers a labeled counter series, e.g.
// CounterL("umon_stage_runs_total", "…", `stage="sim_run"`).
func (r *Registry) CounterL(family, help, labels string) *Counter {
	if r == nil {
		return nil
	}
	return r.register(family, labels, help, KindCounter, func() metric { return new(Counter) }).(*Counter)
}

// Gauge registers (or fetches) a gauge.
func (r *Registry) Gauge(family, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.register(family, "", help, KindGauge, func() metric { return new(Gauge) }).(*Gauge)
}

// Histogram registers (or fetches) a power-of-two-bucketed histogram.
func (r *Registry) Histogram(family, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(family, "", help, KindHistogram, func() metric { return new(Histogram) }).(*Histogram)
}

// HistogramL registers a labeled histogram series.
func (r *Registry) HistogramL(family, help, labels string) *Histogram {
	if r == nil {
		return nil
	}
	return r.register(family, labels, help, KindHistogram, func() metric { return new(Histogram) }).(*Histogram)
}

// BucketCount is one histogram bucket in a snapshot: Count observations
// with value ≤ Le (upper bound inclusive, power-of-two boundaries).
type BucketCount struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"` // cumulative
}

// Snapshot is the point-in-time value of one series.
type Snapshot struct {
	Name    string        `json:"name"`
	Kind    string        `json:"kind"`
	Help    string        `json:"-"`
	Value   int64         `json:"value,omitempty"`
	Count   int64         `json:"count,omitempty"`
	Sum     int64         `json:"sum,omitempty"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every registered series, sorted by name. Values are
// read atomically per series (not across series).
func (r *Registry) Snapshot() []Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	out := make([]Snapshot, 0, len(entries))
	for _, e := range entries {
		s := e.m.snap()
		s.Name = e.series()
		s.Kind = e.kind.String()
		s.Help = e.help
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Value returns the current value of the named series (counters and
// gauges; histograms return their observation count), or 0 if absent.
func (r *Registry) Value(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	e, ok := r.byName[name]
	r.mu.Unlock()
	if !ok {
		return 0
	}
	s := e.m.snap()
	if e.kind == KindHistogram {
		return s.Count
	}
	return s.Value
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4): HELP/TYPE per family, then one line per series.
// Histograms emit cumulative le-buckets at power-of-two boundaries plus
// _sum and _count.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	entries := make([]*entry, len(r.entries))
	copy(entries, r.entries)
	r.mu.Unlock()
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].family != entries[j].family {
			return entries[i].family < entries[j].family
		}
		return entries[i].labels < entries[j].labels
	})
	lastFamily := ""
	for _, e := range entries {
		if e.family != lastFamily {
			lastFamily = e.family
			if e.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", e.family, e.help)
			}
			fmt.Fprintf(w, "# TYPE %s %s\n", e.family, e.kind)
		}
		s := e.m.snap()
		switch e.kind {
		case KindHistogram:
			for _, b := range s.Buckets {
				fmt.Fprintf(w, "%s_bucket{%sle=\"%d\"} %d\n", e.family, promLabelPrefix(e.labels), b.Le, b.Count)
			}
			fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", e.family, promLabelPrefix(e.labels), s.Count)
			fmt.Fprintf(w, "%s_sum%s %d\n", e.family, promLabelSuffix(e.labels), s.Sum)
			fmt.Fprintf(w, "%s_count%s %d\n", e.family, promLabelSuffix(e.labels), s.Count)
		default:
			fmt.Fprintf(w, "%s %d\n", e.series(), s.Value)
		}
	}
}

func promLabelPrefix(labels string) string {
	if labels == "" {
		return ""
	}
	return labels + ","
}

func promLabelSuffix(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// WriteJSON renders the registry as an expvar-style JSON object keyed by
// series name. Counters and gauges map to numbers; histograms map to
// {count, sum, buckets}.
func (r *Registry) WriteJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	snaps := r.Snapshot()
	obj := make(map[string]any, len(snaps))
	for _, s := range snaps {
		switch s.Kind {
		case KindHistogram.String():
			obj[s.Name] = map[string]any{"count": s.Count, "sum": s.Sum, "buckets": s.Buckets}
		default:
			obj[s.Name] = s.Value
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(obj)
}

// WriteSummary renders a human-readable end-of-run report: one line per
// series, histograms summarized as count/mean/approximate p50/p99 (bucket
// upper bounds, so quantiles are upper estimates within 2×).
func (r *Registry) WriteSummary(w io.Writer) {
	if r == nil {
		return
	}
	snaps := r.Snapshot()
	if len(snaps) == 0 {
		fmt.Fprintln(w, "telemetry: no metrics registered")
		return
	}
	width := 0
	for _, s := range snaps {
		if s.Kind == KindHistogram.String() || len(s.Name) <= width {
			continue
		}
		width = len(s.Name)
	}
	fmt.Fprintln(w, "-- telemetry summary --")
	for _, s := range snaps {
		if s.Kind == KindHistogram.String() {
			mean := float64(0)
			if s.Count > 0 {
				mean = float64(s.Sum) / float64(s.Count)
			}
			fmt.Fprintf(w, "%-*s  count=%d mean=%.1f p50≤%d p99≤%d\n",
				width, s.Name, s.Count, mean, quantileLe(s, 0.50), quantileLe(s, 0.99))
			continue
		}
		fmt.Fprintf(w, "%-*s  %d\n", width, s.Name, s.Value)
	}
}

// quantileLe returns the upper bound of the bucket where the cumulative
// count crosses q — an upper estimate of the q-quantile.
func quantileLe(s Snapshot, q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	for _, b := range s.Buckets {
		if b.Count >= target {
			return b.Le
		}
	}
	if n := len(s.Buckets); n > 0 {
		return s.Buckets[n-1].Le
	}
	return 0
}

// sanitize guards series names built from free-form stage labels.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == ':':
			return r
		}
		return '_'
	}, s)
}
