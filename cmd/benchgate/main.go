// benchgate is the CI performance gate: it compares a freshly emitted
// benchjson report against a committed baseline and fails when any named
// benchmark regressed in ns/op by more than the threshold. Improvements
// and new benchmarks pass; baseline benchmarks missing from the fresh run
// fail (the gate cannot vouch for what did not run). With -bytes it also
// gates B/op, for every benchmark whose baseline records it: allocation is
// exact run to run, so its threshold can be a tenth of the clock's.
//
// Usage:
//
//	benchgate -old BENCH_mirror.json -new bench-fresh.json [-threshold 25] [-bytes 2] [-bench 'Pcap|Mirror']
//
// Exit status: 0 when every gated benchmark is within threshold, 1 on any
// regression or missing benchmark, 2 on usage errors.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
)

// result mirrors benchjson's per-benchmark document.
type result struct {
	Name       string  `json:"name"`
	NsPerOp    float64 `json:"ns_per_op"`
	BytesPerOp float64 `json:"bytes_per_op"`
}

type reportDoc struct {
	Benchmarks []result `json:"benchmarks"`
}

func load(path string) (map[string]result, []string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	var doc reportDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	out := make(map[string]result, len(doc.Benchmarks))
	order := make([]string, 0, len(doc.Benchmarks))
	for _, b := range doc.Benchmarks {
		if b.NsPerOp <= 0 {
			continue
		}
		out[b.Name] = b
		order = append(order, b.Name)
	}
	return out, order, nil
}

func main() {
	os.Exit(gate(os.Args[1:], os.Stdout))
}

func gate(args []string, out *os.File) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	oldPath := fs.String("old", "", "committed baseline (benchjson output)")
	newPath := fs.String("new", "", "freshly emitted report (benchjson output)")
	threshold := fs.Float64("threshold", 25, "max allowed ns/op regression in percent")
	bytesPct := fs.Float64("bytes", -1, "max allowed B/op regression in percent (negative: B/op is not gated)")
	benchRe := fs.String("bench", "", "regexp of benchmark names to gate (default: every baseline benchmark)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *oldPath == "" || *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -old and -new are required")
		fs.Usage()
		return 2
	}
	var filter *regexp.Regexp
	if *benchRe != "" {
		re, err := regexp.Compile(*benchRe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			return 2
		}
		filter = re
	}
	olds, oldOrder, err := load(*oldPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 2
	}
	news, _, err := load(*newPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		return 2
	}

	failed := 0
	gated := 0
	for _, name := range oldOrder {
		if filter != nil && !filter.MatchString(name) {
			continue
		}
		gated++
		was := olds[name]
		now, ok := news[name]
		if !ok {
			fmt.Fprintf(out, "FAIL  %-44s  missing from %s\n", name, *newPath)
			failed++
			continue
		}
		row := func(was, now float64, unit string, limit float64) bool {
			deltaPct := (now - was) / was * 100
			verdict := "ok  "
			if deltaPct > limit {
				verdict = "FAIL"
			}
			fmt.Fprintf(out, "%s  %-44s  %12.2f -> %12.2f %s  %+7.1f%%\n", verdict, name, was, now, unit, deltaPct)
			return deltaPct <= limit
		}
		pass := row(was.NsPerOp, now.NsPerOp, "ns/op", *threshold)
		if *bytesPct >= 0 && was.BytesPerOp > 0 {
			pass = row(was.BytesPerOp, now.BytesPerOp, "B/op ", *bytesPct) && pass
		}
		if !pass {
			failed++
		}
	}
	if gated == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no baseline benchmarks matched the filter")
		return 2
	}
	if failed > 0 {
		fmt.Fprintf(out, "benchgate: %d of %d benchmarks regressed past %.0f%%\n", failed, gated, *threshold)
		return 1
	}
	fmt.Fprintf(out, "benchgate: %d benchmarks within %.0f%% of baseline\n", gated, *threshold)
	return 0
}
