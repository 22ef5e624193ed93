package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

func loadResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(f.Runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return &f, nil
}

// samples gathers, per workload and metric, the values of the runs with
// the given trace setting, and the workload's failed-operation share.
type samples struct {
	vals      map[string]map[string][]float64
	attempted map[string]int64
	failed    map[string]int64
}

func gather(f *resultFile, trace bool) samples {
	s := samples{vals: map[string]map[string][]float64{}, attempted: map[string]int64{}, failed: map[string]int64{}}
	for _, r := range f.Runs {
		if r.Trace != trace {
			continue
		}
		if s.vals[r.Workload] == nil {
			s.vals[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.Metrics {
			s.vals[r.Workload][name] = append(s.vals[r.Workload][name], v.Value)
		}
		s.attempted[r.Workload] += r.Attempted
		s.failed[r.Workload] += r.Failed
	}
	return s
}

// worseBy is how much worse b is than a, as a share of a, in the metric's
// own direction: positive is worse.
func worseBy(d *metricDef, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// verdict judges one (workload, metric) pair from the two sides' runs.
// A pair whose run-to-run quartile spread exceeds the bound is unresolved:
// neither a regression nor its absence can be read from it.
func verdict(d *metricDef, oldVals, newVals []float64) (string, float64) {
	o1, o2, o3 := quartiles(oldVals)
	n1, n2, n3 := quartiles(newVals)
	worse := worseBy(d, o2, n2)
	spread := math.Max(ratio(o3-o1, math.Abs(o2)), ratio(n3-n1, math.Abs(n2)))
	switch {
	case spread > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "REGRESSED", worse
	case worse < -spread && worse < 0:
		return "better", worse
	}
	return "ok", worse
}

// compareFiles prints one row per (workload, metric) and reports whether
// the new side holds: no regression and no higher failed-operation share.
func compareFiles(oldF, newF *resultFile, w io.Writer) bool {
	oh, nh := oldF.Header, newF.Header
	fmt.Fprintf(w, "old: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s, %d runs\n", oh.Commit, oh.GoVersion, oh.NumCPU, oh.GOMAXPROCS, oh.Seed, oh.Seconds, oh.Runs)
	fmt.Fprintf(w, "new: commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, %g s, %d runs\n", nh.Commit, nh.GoVersion, nh.NumCPU, nh.GOMAXPROCS, nh.Seed, nh.Seconds, nh.Runs)
	if oh.GoVersion != nh.GoVersion || oh.NumCPU != nh.NumCPU || oh.GOMAXPROCS != nh.GOMAXPROCS || oh.Seed != nh.Seed || oh.Seconds != nh.Seconds {
		fmt.Fprintln(w, "WARNING: the two files were not made under the same conditions")
	}
	holds := true
	oldE, newE := gather(oldF, false), gather(newF, false)
	fmt.Fprintf(w, "\n%-17s %-22s %12s %25s %12s %25s %8s  %s\n", "workload", "metric", "old median", "[q1 .. q3] n", "new median", "[q1 .. q3] n", "worse", "verdict")
	for _, spec := range workloads {
		ov, nv := oldE.vals[spec.Name], newE.vals[spec.Name]
		if ov == nil || nv == nil {
			continue
		}
		for i := range endToEnd {
			d := &endToEnd[i]
			if len(ov[d.Name]) == 0 || len(nv[d.Name]) == 0 {
				fmt.Fprintf(w, "%-17s %-22s missing on one side\n", spec.Name, d.Name)
				holds = false
				continue
			}
			o1, o2, o3 := quartiles(ov[d.Name])
			n1, n2, n3 := quartiles(nv[d.Name])
			v, worse := verdict(d, ov[d.Name], nv[d.Name])
			if v == "REGRESSED" {
				holds = false
			}
			fmt.Fprintf(w, "%-17s %-22s %12.4f %25s %12.4f %25s %+7.1f%%  %s (bound %.3g%%)\n", spec.Name, d.Name,
				o2, fmt.Sprintf("[%.4g .. %.4g] %d", o1, o3, len(ov[d.Name])),
				n2, fmt.Sprintf("[%.4g .. %.4g] %d", n1, n3, len(nv[d.Name])), 100*worse, v, 100*d.Bound)
		}
		oldShare := ratio(float64(oldE.failed[spec.Name]), float64(oldE.attempted[spec.Name]))
		newShare := ratio(float64(newE.failed[spec.Name]), float64(newE.attempted[spec.Name]))
		if newShare > oldShare {
			holds = false
			fmt.Fprintf(w, "%-17s failed-operation share rose from %.3g to %.3g: REGRESSED\n", spec.Name, oldShare, newShare)
		}
	}
	// Per-layer rows explain a movement; they carry no verdict.
	oldL, newL := gather(oldF, true), gather(newF, true)
	for _, spec := range workloads {
		ov, nv := oldL.vals[spec.Name], newL.vals[spec.Name]
		if ov == nil || nv == nil {
			continue
		}
		fmt.Fprintf(w, "\nper-layer, %s (medians)\n", spec.Name)
		for _, d := range perLayer {
			if len(ov[d.Name]) == 0 || len(nv[d.Name]) == 0 {
				continue
			}
			_, o2, _ := quartiles(ov[d.Name])
			_, n2, _ := quartiles(nv[d.Name])
			fmt.Fprintf(w, "  %-34s %14.4f -> %14.4f %s\n", d.Name, o2, n2, d.Unit)
		}
	}
	return holds
}

func compareMain(args []string, w io.Writer) (bool, error) {
	if len(args) != 2 {
		return false, fmt.Errorf("usage: bench compare old.json new.json")
	}
	oldF, err := loadResults(args[0])
	if err != nil {
		return false, err
	}
	newF, err := loadResults(args[1])
	if err != nil {
		return false, err
	}
	holds := compareFiles(oldF, newF, w)
	if holds {
		fmt.Fprintln(w, "\nno regression")
	} else {
		fmt.Fprintln(w, "\nREGRESSION")
	}
	return holds, nil
}

// selfcheckMain runs every workload twice on this binary with one seed and
// asserts that the two sets agree within the benchmark's own bounds: exact
// metrics bit for bit, the others within their bound.
func selfcheckMain(args []string, w io.Writer) (bool, error) {
	fs := flag.NewFlagSet("bench selfcheck", flag.ContinueOnError)
	seed := fs.Int64("seed", 42, "seed the inputs are generated from")
	seconds := fs.Float64("seconds", runSeconds, "length of the measured phase")
	if err := fs.Parse(args); err != nil {
		return false, err
	}
	agree := true
	for i := range workloads {
		spec := &workloads[i]
		var pair [2]*result
		for k := range pair {
			res, err := runWorkload(spec, runOptions{seed: *seed, seconds: *seconds})
			if err != nil {
				return false, fmt.Errorf("%s: %w", spec.Name, err)
			}
			if !res.Correct {
				agree = false
				printRun(w, res)
			}
			pair[k] = res
		}
		for j := range endToEnd {
			d := &endToEnd[j]
			a, b := pair[0].Metrics[d.Name].Value, pair[1].Metrics[d.Name].Value
			diff := math.Abs(a-b) / math.Max(math.Abs(a), math.Abs(b))
			verdict := "ok"
			switch {
			case d.Exact && a != b:
				verdict, agree = "DIFFERS (exact metric)", false
			case !d.Exact && diff > d.Bound:
				verdict, agree = fmt.Sprintf("DIFFERS by more than %.0f%%", 100*d.Bound), false
			}
			fmt.Fprintf(w, "%-17s %-22s %14.4f %14.4f  %5.1f%%  %s\n", spec.Name, d.Name, a, b, 100*diff, verdict)
		}
	}
	if agree {
		fmt.Fprintln(w, "\nselfcheck passed")
	} else {
		fmt.Fprintln(w, "\nselfcheck FAILED")
	}
	return agree, nil
}
