// Package experiments regenerates every table and figure of the paper's
// evaluation (§7). Each experiment is a function producing a printable
// Table; simulations are cached per (workload, load) configuration and
// shared across experiments, exactly as the paper reuses its six NS-3
// traces. DESIGN.md carries the experiment index; EXPERIMENTS.md records
// paper-vs-measured outcomes.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"umon/internal/measure"
	"umon/internal/netsim"
	"umon/internal/telemetry"
	"umon/internal/workload"
)

// Options scales the evaluation. The zero value is filled with the paper's
// setup: fat-tree k=4 (16 hosts), 100 Gbps, 20 ms traces.
type Options struct {
	// DurationNs is the traffic horizon (paper: 20 ms). The simulation
	// runs 10% past it so in-flight traffic lands.
	DurationNs int64
	// Seed drives workload generation and marking decisions.
	Seed int64
	// Telemetry, when non-nil, attaches the simulator's operational
	// counters (netsim SimStats) to every cached simulation build. All
	// builds share one registry; registration is idempotent, so the
	// counters aggregate across the six standard simulations. Nil (the
	// default) is the disabled, zero-overhead configuration.
	Telemetry *telemetry.Registry
}

func (o Options) filled() Options {
	if o.DurationNs <= 0 {
		o.DurationNs = 20_000_000
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// SimKey identifies one cached simulation.
type SimKey struct {
	Workload string // "WebSearch" or "FacebookHadoop"
	Load     float64
}

func (k SimKey) String() string { return fmt.Sprintf("%s-%d%%", k.Workload, int(k.Load*100)) }

// distFor maps a SimKey to its flow-size distribution.
func distFor(name string) (*workload.Distribution, error) {
	switch name {
	case "WebSearch":
		return workload.WebSearch(), nil
	case "FacebookHadoop":
		return workload.FacebookHadoop(), nil
	}
	return nil, fmt.Errorf("experiments: unknown workload %q", name)
}

// SimResult is one cached simulation with its derived ground truth.
type SimResult struct {
	Key   SimKey
	Flows []workload.Flow
	Trace *netsim.Trace
	// Truth holds exact per-flow window series built from the host egress
	// streams (what the host sketches also see).
	Truth *measure.GroundTruth
	// HorizonNs is the trace duration used for bandwidth math.
	HorizonNs int64
}

// simEntry is one memoized build: its result or its error.
type simEntry struct {
	res *SimResult
	err error
}

// Cache memoizes simulations across experiments. It is not safe for
// concurrent use: the experiments share it one at a time.
type Cache struct {
	opt  Options
	sims map[SimKey]simEntry
}

// NewCache returns a cache with the given options.
func NewCache(opt Options) *Cache {
	return &Cache{opt: opt.filled(), sims: make(map[SimKey]simEntry)}
}

// Sim returns (building if needed) the simulation for the key.
func (c *Cache) Sim(key SimKey) (*SimResult, error) {
	e, ok := c.sims[key]
	if !ok {
		e.res, e.err = c.build(key)
		c.sims[key] = e
	}
	return e.res, e.err
}

// Prewarm builds every listed simulation so subsequent experiments hit a
// warm cache, stopping at the first build error.
func (c *Cache) Prewarm(keys []SimKey) error {
	for _, key := range keys {
		if _, err := c.Sim(key); err != nil {
			return err
		}
	}
	return nil
}

// StandardKeys lists the six simulations the paper's evaluation reuses:
// both workloads at 15/25/35% load.
func StandardKeys() []SimKey {
	return []SimKey{
		{"FacebookHadoop", 0.15},
		{"FacebookHadoop", 0.25},
		{"FacebookHadoop", 0.35},
		{"WebSearch", 0.15},
		{"WebSearch", 0.25},
		{"WebSearch", 0.35},
	}
}

// build runs the simulation for key and derives its ground truth.
func (c *Cache) build(key SimKey) (*SimResult, error) {
	dist, err := distFor(key.Workload)
	if err != nil {
		return nil, err
	}
	topo, err := netsim.FatTree(4)
	if err != nil {
		return nil, err
	}
	cfg := netsim.DefaultConfig(topo)
	cfg.Seed = uint64(c.opt.Seed)
	cfg.Stats = netsim.NewSimStats(c.opt.Telemetry)
	flows, err := workload.Generate(workload.Config{
		Dist: dist, Load: key.Load, Hosts: topo.Hosts,
		LinkBps: cfg.LinkBps, DurationNs: c.opt.DurationNs, Seed: c.opt.Seed,
	})
	if err != nil {
		return nil, err
	}
	horizon := c.opt.DurationNs + c.opt.DurationNs/10
	trace, err := netsim.RunWorkload(cfg, flows, horizon)
	if err != nil {
		return nil, err
	}
	truth := measure.NewGroundTruth()
	for _, recs := range trace.HostPackets {
		for _, r := range recs {
			truth.Update(r.Flow, measure.WindowOf(r.Ns), int64(r.Size))
		}
	}
	return &SimResult{Key: key, Flows: flows, Trace: trace, Truth: truth, HorizonNs: horizon}, nil
}

// Table is one regenerated table or figure: headers, rows, and notes that
// record the comparison target from the paper.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// AddNote appends a note line.
func (t *Table) AddNote(format string, args ...any) {
	t.Notes = append(t.Notes, fmt.Sprintf(format, args...))
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

// Runner maps experiment ids to their functions.
type Runner struct {
	cache *Cache
}

// NewRunner wraps a cache.
func NewRunner(cache *Cache) *Runner { return &Runner{cache: cache} }

// ExperimentFunc regenerates one table/figure.
type ExperimentFunc func(*Cache) (*Table, error)

// All returns the full experiment registry in presentation order.
func All() []struct {
	ID string
	Fn ExperimentFunc
} {
	return []struct {
		ID string
		Fn ExperimentFunc
	}{
		{"fig1", Fig01Granularity},
		{"fig3", Fig03CounterIncrease},
		{"fig5", Fig05WaveletExample},
		{"fig9", Fig09FlowBehaviors},
		{"fig10", Fig10EventReplay},
		{"fig11", Fig11AccuracyHadoop15},
		{"fig12", Fig12AccuracyWebSearch25},
		{"fig13", Fig13Reconstruction},
		{"fig14", Fig14EventRecall},
		{"fig15", Fig15MirrorBandwidth},
		{"fig16", Fig16WorkloadInfo},
		{"fig17", Fig17AccuracyByFlowSizeWS},
		{"fig18", Fig18AccuracyByFlowSizeHD},
		{"table1", Table1HardwareResources},
		{"table2", Table2Workloads},
		{"sec7.1", Sec71HostBandwidth},
		{"ablation-selection", AblationSelection},
		{"ablation-depth", AblationDepth},
		{"ablation-rows", AblationRows},
		{"ablation-heavy", AblationHeavy},
		{"ext-loss", ExtLossForensics},
	}
}

// IDs lists the registered experiment ids.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id.
func (r *Runner) Run(id string) (*Table, error) {
	for _, e := range All() {
		if e.ID == id {
			return e.Fn(r.cache)
		}
	}
	return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
}

// fmtF renders a float compactly.
func fmtF(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}
