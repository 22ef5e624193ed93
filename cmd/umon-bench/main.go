// umon-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	umon-bench [-run fig11,fig14] [-ms 20] [-seed 42] [-list]
//	           [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//	           [-telemetry-addr :8080] [-telemetry-dump]
//
// With no -run it executes every registered experiment in presentation
// order, prewarming the six shared fat-tree simulations and then sharing
// them across experiments. -ms scales the trace duration (the paper uses
// 20 ms traces; smaller values are useful for smoke runs). The
// simulations run on the serial engine and record their packet logs, which
// the experiments grade against.
// -cpuprofile/-memprofile write pprof profiles for the run.
// -telemetry-addr serves the live operational counters (Prometheus
// /metrics, JSON /vars, /debug/pprof); -telemetry-dump prints a summary to
// stderr at exit. Telemetry goes to stderr and never perturbs the tables.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"umon/internal/experiments"
	"umon/internal/telemetry"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// benchMain is the testable entry point: it parses args, runs the
// requested experiments writing tables to stdout and diagnostics to
// stderr, and returns the process exit code.
func benchMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("umon-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	run := fs.String("run", "", "comma-separated experiment ids (default: all)")
	ms := fs.Int64("ms", 20, "trace duration in milliseconds")
	seed := fs.Int64("seed", 42, "workload/marking seed")
	list := fs.Bool("list", false, "list experiment ids and exit")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	telemetryAddr := fs.String("telemetry-addr", "", "serve live telemetry on this address (/metrics Prometheus, /vars JSON, /debug/pprof)")
	telemetryDump := fs.Bool("telemetry-dump", false, "print a telemetry summary to stderr at end of run")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, e := range experiments.All() {
			fmt.Fprintln(stdout, e.ID)
		}
		return 0
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "umon-bench: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(stderr, "umon-bench: %v\n", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var reg *telemetry.Registry
	if *telemetryAddr != "" || *telemetryDump {
		reg = telemetry.NewRegistry()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintf(stderr, "umon-bench: %v\n", err)
			return 1
		}
		defer srv.Close()
		fmt.Fprintf(stderr, "umon-bench: telemetry on http://%s/metrics\n", srv.Addr())
	}
	tracer := telemetry.NewTracer(reg)

	cache := experiments.NewCache(experiments.Options{DurationNs: *ms * 1_000_000, Seed: *seed, Telemetry: reg})
	runner := experiments.NewRunner(cache)

	var ids []string
	if *run == "" {
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
		// The full suite touches all six standard simulations; build them
		// before the presentation loop.
		start := time.Now()
		span := tracer.Start("prewarm")
		if err := cache.Prewarm(experiments.StandardKeys()); err != nil {
			fmt.Fprintf(stderr, "umon-bench: prewarm: %v\n", err)
			return 1
		}
		span.End()
		fmt.Fprintf(stdout, "  (prewarmed %d simulations in %.1fs)\n\n",
			len(experiments.StandardKeys()), time.Since(start).Seconds())
	} else {
		ids = strings.Split(*run, ",")
	}

	failed := 0
	for _, id := range ids {
		id = strings.TrimSpace(id)
		if id == "" {
			continue
		}
		start := time.Now()
		span := tracer.Start("exp_" + id)
		tab, err := runner.Run(id)
		span.End()
		if err != nil {
			fmt.Fprintf(stderr, "umon-bench: %s: %v\n", id, err)
			failed++
			continue
		}
		tab.Fprint(stdout)
		fmt.Fprintf(stdout, "  (%s in %.1fs)\n\n", id, time.Since(start).Seconds())
	}
	if *telemetryDump {
		reg.WriteSummary(stderr)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderr, "umon-bench: %v\n", err)
			return 1
		}
		runtime.GC() // settle the heap so the profile reflects live data
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(stderr, "umon-bench: %v\n", err)
			return 1
		}
		f.Close()
	}
	if failed > 0 {
		return 1
	}
	return 0
}
