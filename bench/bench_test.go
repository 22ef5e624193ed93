package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// toy shrinks a workload to smoke-test scale: a sub-millisecond trace and
// an 8-host fleet, so that a run takes a fraction of
// a second and still goes through every stage.
func toy(spec workloadSpec) *workloadSpec {
	spec.TrafficNs = 600_000
	spec.DrainNs = 300_000
	spec.TurnoverS = 0.2
	if spec.Fleet != nil {
		spec.Fleet = &fleetSpec{Hosts: 8, ContentEpochs: 4, FlowsPerReport: 32, HotFlows: 16, DecodeBudget: 8}
	}
	return &spec
}

const toySeconds = 0.3

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%s: %d metrics reported, %d defined", res.Workload, len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		if !nameRE.MatchString(d.Name) {
			t.Errorf("metric name %q is not of the agreed form", d.Name)
		}
		v, ok := res.Metrics[d.Name]
		if !ok {
			t.Errorf("%s: metric %s is missing", res.Workload, d.Name)
			continue
		}
		if v.Unit == "" || v.Unit != d.Unit {
			t.Errorf("%s: metric %s has unit %q, want %q", res.Workload, d.Name, v.Unit, d.Unit)
		}
	}
	for _, c := range res.Checks {
		if !c.OK {
			t.Errorf("%s: check %s failed: %s", res.Workload, c.Name, c.Detail)
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct %v, %d of %d operations failed", res.Workload, res.Correct, res.Failed, res.Attempted)
	}
}

// TestEveryWorkload runs each workload at toy scale, untraced and traced,
// and checks that every metric is present with its unit, every check
// passes and the traced run's ledger reconciles.
func TestEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %q: bad name or reason", w.Name)
		}
		spec := toy(w)
		res, err := runWorkload(spec, runOptions{seed: 1, seconds: toySeconds})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		checkMetrics(t, res, endToEnd)
		for _, d := range endToEnd {
			if res.Metrics[d.Name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", w.Name, d.Name)
			}
		}

		traced, err := runWorkload(spec, runOptions{seed: 1, seconds: toySeconds, trace: true})
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		checkMetrics(t, traced, perLayer)
		if traced.Ledger == nil || len(traced.Ledger.Rows) != int(numLayers) {
			t.Fatalf("%s: traced run has no ledger", w.Name)
		}
		var sum float64
		for _, row := range traced.Ledger.Rows {
			sum += row.SelfS
		}
		if d := sum - traced.Ledger.WallS; d > 1e-6 || d < -1e-6 {
			t.Errorf("%s: ledger rows sum to %.9f s, root spans to %.9f s", w.Name, sum, traced.Ledger.WallS)
		}
		if len(traced.spans) == 0 {
			t.Errorf("%s: traced run kept no spans", w.Name)
		}
	}
}

// TestExactMetrics checks that the metrics declared exact are functions of
// the seed alone: equal between two runs of one seed that last differently
// long, different for another seed.
func TestExactMetrics(t *testing.T) {
	spec := toy(workloads[0])
	a, err := runWorkload(spec, runOptions{seed: 1, seconds: toySeconds})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWorkload(spec, runOptions{seed: 1, seconds: 2 * toySeconds})
	if err != nil {
		t.Fatal(err)
	}
	c, err := runWorkload(spec, runOptions{seed: 2, seconds: toySeconds})
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for _, d := range endToEnd {
		if !d.Exact {
			continue
		}
		if a.Metrics[d.Name].Value != b.Metrics[d.Name].Value {
			t.Errorf("%s: %v and %v on two runs of one seed", d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
		}
		if a.Metrics[d.Name].Value != c.Metrics[d.Name].Value {
			differs = true
		}
	}
	if !differs {
		t.Error("no exact metric changed with the seed")
	}
}

// TestManifest checks that BENCHMARK.json names the workloads and metrics
// this program reports, with the same units, directions and bounds.
func TestManifest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, built any
	if err := json.Unmarshal(raw, &onDisk); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeManifest(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &built); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, built) {
		t.Errorf("BENCHMARK.json differs from the program's registry; `bench manifest` prints the current one:\n%s", buf.String())
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("%s: bound %v, better %q", d.Name, d.Bound, d.Better)
		}
	}
}

// TestCompare checks the verdicts compare gives: a metric that worsens
// past its bound regresses, one whose spread exceeds its bound is
// unresolved, one within its bound holds.
func TestCompare(t *testing.T) {
	mpps := &endToEnd[1]
	if mpps.Name != "pipeline_mpps" {
		t.Fatal("registry order changed")
	}
	cases := []struct {
		old, new []float64
		want     string
	}{
		{[]float64{3.0, 3.01, 2.99}, []float64{2.98, 3.0, 3.02}, "ok"},
		{[]float64{3.0, 3.01, 2.99}, []float64{2.0, 2.01, 1.99}, "REGRESSED"},
		{[]float64{3.0, 3.01, 2.99}, []float64{4.0, 4.01, 3.99}, "better"},
		{[]float64{3.0, 4.0, 2.0}, []float64{2.0, 2.01, 1.99}, "unresolved"},
	}
	for _, c := range cases {
		if got, _ := verdict(mpps, c.old, c.new); got != c.want {
			t.Errorf("verdict(%v, %v) = %s, want %s", c.old, c.new, got, c.want)
		}
	}
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25 (statistics.quantiles, n=4)", q1, q2, q3)
	}
}
