// Command bench is the packet→answer benchmark of this repository: it
// replays seeded, recorded simulations through the exported entry points
// of every layer — host monitors, the framed report stream, switch
// monitors, the collector, its query plane — prints every metric by name
// and unit, checks that the outputs are correct and exits non-zero when
// they are not. See README.md for the workloads, the metrics and how to
// read the output.
//
//	bench --workload stream-mice --seed 42 --seconds 10 --trace 0
//	bench compare old.json new.json
//	bench selfcheck
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// header says where and how a result file was made, so that two files can
// be checked for comparability before they are compared.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Runs       int     `json:"runs_per_workload"`
	Started    string  `json:"started"`
	TotalWallS float64 `json:"total_wall_s"`
}

// resultFile is what --out writes and compare reads.
type resultFile struct {
	Header header    `json:"header"`
	Runs   []*result `json:"runs"`
}

// resultLine is the last line of standard output of a run.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// commit is set by run.sh at link time.
var commit = "unknown"

func newHeader(seed int64, seconds float64, runs int) header {
	return header{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: seed, Seconds: seconds, Runs: runs,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

func main() {
	args := os.Args[1:]
	var err error
	ok := true
	switch {
	case len(args) > 0 && args[0] == "compare":
		ok, err = compareMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "selfcheck":
		ok, err = selfcheckMain(args[1:], os.Stdout)
	case len(args) > 0 && args[0] == "manifest":
		err = writeManifest(os.Stdout)
	default:
		if len(args) > 0 && args[0] == "run" {
			args = args[1:]
		}
		ok, err = runMain(args, os.Stdout, os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(2)
	}
	if !ok {
		os.Exit(1)
	}
}

// runMain runs one workload (or, without --workload, each in turn) and
// prints one result line per workload on stdout; the human-readable
// account goes to stderr.
func runMain(args []string, stdout, stderr io.Writer) (bool, error) {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (default: every workload in turn)")
	seed := fs.Int64("seed", 42, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	trace := fs.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
	runs := fs.Int("runs", 1, "repeat each workload and report median and quartiles")
	out := fs.String("out", "", "write every run, with header, checks and ledger, to this JSON file")
	traceOut := fs.String("trace-out", "", "write the spans of the last traced run to this JSON file")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	if fs.NArg() > 0 {
		return false, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds <= 0 || *runs < 1 || (*trace != 0 && *trace != 1) {
		return false, fmt.Errorf("--seconds and --runs must be positive, --trace 0 or 1")
	}
	specs := workloads
	if *name != "" {
		spec, err := findWorkload(*name)
		if err != nil {
			return false, err
		}
		specs = []workloadSpec{*spec}
	}

	began := time.Now()
	file := resultFile{Header: newHeader(*seed, *seconds, *runs)}
	allCorrect := true
	var lastSpans []span
	for i := range specs {
		var group []*result
		for r := 0; r < *runs; r++ {
			res, err := runWorkload(&specs[i], runOptions{seed: *seed, seconds: *seconds, trace: *trace == 1})
			if err != nil {
				return false, fmt.Errorf("%s: %w", specs[i].Name, err)
			}
			printRun(stderr, res)
			group = append(group, res)
			if res.spans != nil {
				lastSpans = res.spans
			}
		}
		file.Runs = append(file.Runs, group...)
		line := summarize(group)
		if len(group) > 1 {
			printGroup(stderr, group)
		}
		allCorrect = allCorrect && line.Correct
		if err := json.NewEncoder(stdout).Encode(line); err != nil {
			return false, err
		}
	}
	file.Header.TotalWallS = time.Since(began).Seconds()
	if *out != "" {
		if err := writeJSON(*out, file); err != nil {
			return false, err
		}
	}
	if *traceOut != "" {
		if lastSpans == nil {
			return false, fmt.Errorf("--trace-out needs --trace 1")
		}
		if err := writeJSON(*traceOut, lastSpans); err != nil {
			return false, err
		}
	}
	return allCorrect, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summarize folds the runs of one workload into its result line: the
// median of every metric, the operations summed.
func summarize(group []*result) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]value{}}
	vals := map[string][]float64{}
	for _, r := range group {
		line.Correct = line.Correct && r.Correct
		line.Attempted += r.Attempted
		line.Failed += r.Failed
		for name, v := range r.Metrics {
			vals[name] = append(vals[name], v.Value)
			line.Metrics[name] = value{Unit: v.Unit}
		}
	}
	for name, v := range vals {
		_, med, _ := quartiles(v)
		line.Metrics[name] = value{Value: med, Unit: line.Metrics[name].Unit}
	}
	return line
}

// printRun prints one run for a person to read.
func printRun(w io.Writer, r *result) {
	kind := "end-to-end"
	defs := endToEnd
	if r.Trace {
		kind, defs = "per-layer", perLayer
	}
	fmt.Fprintf(w, "\n== %s  seed %d  %s  (%.1f s wall; laps %d untraced + %d traced; %d queries)\n",
		r.Workload, r.Seed, kind, r.WallS, r.Samples["laps_untraced"], r.Samples["laps_traced"], r.Samples["queries"])
	for _, d := range defs {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
		}
	}
	q1, q2, q3 := quartiles(r.LapS)
	fmt.Fprintf(w, "  lap wall: median %.4f s [%.4f .. %.4f]; samples %v\n", q2, q1, q3, r.Samples)
	if r.Ledger != nil {
		fmt.Fprintf(w, "  ledger: %.3f s of traced laps\n", r.Ledger.WallS)
		for _, row := range r.Ledger.Rows {
			fmt.Fprintf(w, "    %-20s %8.4f s  %5.1f %%  %8d spans %10d calls\n", row.Layer, row.SelfS, 100*row.Share, row.Spans, row.Calls)
		}
	}
	if v, ok := r.Metrics["trace.overhead_share"]; ok && v.Value > 0.15 {
		fmt.Fprintf(w, "  WARNING: tracing slowed a lap by %.0f %%; the per-layer shares are inflated by it\n", 100*v.Value)
	}
	for _, c := range r.Checks {
		if !c.OK {
			fmt.Fprintf(w, "  FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed; correct: %v\n", r.Attempted, r.Failed, r.Correct)
}

// printGroup prints median and quartiles over repeated runs.
func printGroup(w io.Writer, group []*result) {
	fmt.Fprintf(w, "\n== %s over %d runs: median [q1 .. q3]\n", group[0].Workload, len(group))
	defs := endToEnd
	if group[0].Trace {
		defs = perLayer
	}
	for _, d := range defs {
		var vals []float64
		for _, r := range group {
			if v, ok := r.Metrics[d.Name]; ok {
				vals = append(vals, v.Value)
			}
		}
		q1, q2, q3 := quartiles(vals)
		fmt.Fprintf(w, "  %-34s %14.4f [%.4f .. %.4f] %s  n=%d  spread %.1f %%\n", d.Name, q2, q1, q3, d.Unit, len(vals), 100*ratio(q3-q1, q2))
	}
}

// manifest is BENCHMARK.json: the contract between this program and
// whatever drives it.
type manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestLoad   `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	mf := manifest{Command: []string{"bash", "bench/run.sh"}, Paths: []string{"bench"}, RunSeconds: runSeconds}
	for _, w := range workloads {
		mf.Workloads = append(mf.Workloads, manifestLoad{Name: w.Name, Why: w.Why})
	}
	for i := range endToEnd {
		d := &endToEnd[i]
		mf.EndToEnd = append(mf.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &d.Bound})
	}
	for _, d := range perLayer {
		mf.PerLayer = append(mf.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return mf
}

func writeManifest(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(buildManifest())
}
