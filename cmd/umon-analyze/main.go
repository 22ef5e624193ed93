// umon-analyze is the offline µMon analyzer CLI: it ingests a mirror pcap
// (VLAN-tagged CE packets with switch timestamps) and the hosts' WaveSketch
// reports as framed .umstream files, detects congestion events, prints
// their distribution, and replays the most significant event.
//
// Usage:
//
//	umon-analyze -mirrors out/mirrors.pcap -reports out/ [-gap-us 50] [-top 10]
//
// -reports takes one stream file or a directory holding some (umon-sim's
// -out directory). Frames reach the analyzer in file order, so the output
// is identical at any GOMAXPROCS.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"umon/internal/analyzer"
	"umon/internal/mbuf"
	"umon/internal/measure"
	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
)

func main() {
	mirrors := flag.String("mirrors", "", "mirror pcap from umon-sim (required)")
	reports := flag.String("reports", "", "host reports: a .umstream file from umon-sim, or a directory holding some")
	gapUs := flag.Int64("gap-us", 50, "event clustering gap in microseconds")
	top := flag.Int("top", 10, "events to list")
	replayMarginUs := flag.Int64("replay-margin-us", 250, "replay margin around the event")
	decodeBudget := flag.Int("decode-budget", 0, "max resident decoded curves per report (0: unbounded; evicted curves re-decode on demand)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve live telemetry on this address (/metrics Prometheus, /vars JSON, /debug/pprof)")
	telemetryDump := flag.Bool("telemetry-dump", false, "print a telemetry summary to stderr at end of run")
	flag.Parse()

	if *mirrors == "" {
		flag.Usage()
		os.Exit(2)
	}
	var reg *telemetry.Registry
	if *telemetryAddr != "" || *telemetryDump {
		reg = telemetry.NewRegistry()
	}
	if *telemetryAddr != "" {
		srv, err := telemetry.Serve(*telemetryAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "umon-analyze:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "umon-analyze: telemetry on http://%s/metrics\n", srv.Addr())
	}
	err := run(*mirrors, *reports, *gapUs*1000, *top, *replayMarginUs*1000, *decodeBudget, reg)
	if *telemetryDump {
		reg.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "umon-analyze:", err)
		os.Exit(1)
	}
}

func run(mirrorPath, reportDir string, gapNs int64, top int, replayMarginNs int64, decodeBudget int, reg *telemetry.Registry) error {
	a := analyzer.New()
	a.SetStats(analyzer.NewPlaneStats(reg))
	tracer := telemetry.NewTracer(reg)

	f, err := os.Open(mirrorPath)
	if err != nil {
		return err
	}
	defer f.Close()
	// Stream the capture in batches of pooled-buffer views: the analyzer's
	// decode is in-place, so no per-packet copy ever happens and memory
	// stays bounded by the batch in flight rather than the file size.
	pool := mbuf.New(mbuf.Config{Stats: mbuf.NewPoolStats(reg)})
	rd, err := pcapio.NewReaderOpts(f, pcapio.ReaderOpts{Pool: pool})
	if err != nil {
		return fmt.Errorf("reading %s: %w", mirrorPath, err)
	}
	defer rd.Close()
	var badMirror int
	span := tracer.Start("mirror_ingest")
	var batch pcapio.Batch
	var readErr error
	for readErr == nil {
		var n int
		n, readErr = rd.ReadBatch(&batch, pcapio.DefaultBatchSize)
		for _, p := range batch.Pkts[:n] {
			if err := a.AddMirrorPacket(p.Data); err != nil {
				badMirror++
			}
		}
	}
	batch.Release()
	span.End()
	if readErr != io.EOF {
		return fmt.Errorf("reading %s: %w", mirrorPath, readErr)
	}
	fmt.Printf("mirrors       %d packets ingested, %d unparseable\n", a.Mirrors(), badMirror)

	if reportDir != "" {
		span = tracer.Start("report_decode")
		ingested, err := ingestReports(a, reportDir, decodeBudget)
		span.End()
		if err != nil {
			return err
		}
		fmt.Printf("reports       %d ingested from %s\n", ingested, reportDir)
	}

	span = tracer.Start("detect_events")
	events := a.DetectEvents(gapNs)
	span.End()
	stats := analyzer.Durations(events)
	fmt.Printf("events        %d detected (gap %dus)\n", stats.Count, gapNs/1000)
	if stats.Count == 0 {
		return nil
	}
	fmt.Printf("durations     p50 %.0fus  p90 %.0fus  p99 %.0fus  max %.0fus\n",
		float64(stats.P50Ns)/1000, float64(stats.P90Ns)/1000,
		float64(stats.P99Ns)/1000, float64(stats.MaxNs)/1000)

	// Top events by mirrored packets.
	sorted := append([]analyzer.Event(nil), events...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Packets > sorted[j].Packets })
	if top > len(sorted) {
		top = len(sorted)
	}
	fmt.Println("\ntop events:")
	for i := 0; i < top; i++ {
		ev := sorted[i]
		fmt.Printf("  %2d. sw%d/p%d  t=%.0f-%.0fus  %d pkts  %d flows\n",
			i+1, ev.Port.Switch, ev.Port.Port,
			float64(ev.StartNs)/1000, float64(ev.EndNs)/1000, ev.Packets, len(ev.Flows))
	}

	// Replay the biggest event if rate curves are available.
	best := sorted[0]
	span = tracer.Start("replay")
	view := a.Replay(best, replayMarginNs)
	span.End()
	var active int
	for _, c := range view.Curves {
		for _, v := range c {
			if v > 0 {
				active++
				break
			}
		}
	}
	if active == 0 {
		fmt.Println("\nno rate curves available for replay (pass -reports)")
		return nil
	}
	fmt.Printf("\nreplay of the largest event (%s):\n", best.String())
	flows := best.Flows
	if len(flows) > 4 {
		flows = flows[:4]
	}
	header := fmt.Sprintf("  %-12s", "window")
	for i := range flows {
		header += fmt.Sprintf("  flow%-2d(Gbps)", i)
	}
	fmt.Println(header)
	step := view.Windows / 24
	if step < 1 {
		step = 1
	}
	for w := 0; w < view.Windows; w += step {
		line := fmt.Sprintf("  %-12d", view.WindowStart+int64(w))
		for _, fk := range flows {
			line += fmt.Sprintf("  %-12.2f", analyzer.RateGbps(view.Curves[fk][w]))
		}
		marker := ""
		abs := (view.WindowStart + int64(w)) * measure.WindowNanos
		if abs >= best.StartNs && abs <= best.EndNs {
			marker = "  <- event"
		}
		fmt.Println(strings.TrimRight(line, " ") + marker)
	}
	return nil
}

// ingestReports feeds host reports from path into the analyzer: one
// .umstream file, or a directory whose .umstream files are ingested in
// name order.
func ingestReports(a *analyzer.Analyzer, path string, decodeBudget int) (int, error) {
	st, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	if !st.IsDir() {
		return ingestStreamFile(a, path, decodeBudget)
	}
	streams, err := filepath.Glob(filepath.Join(path, "*.umstream"))
	if err != nil {
		return 0, err
	}
	if len(streams) == 0 {
		if legacy, _ := filepath.Glob(filepath.Join(path, "*.umon")); len(legacy) > 0 {
			return 0, fmt.Errorf("%s holds %d per-period .umon report files and no .umstream: the per-period format was removed, re-run umon-sim to get reports.umstream", path, len(legacy))
		}
		return 0, fmt.Errorf("no .umstream report file in %s", path)
	}
	sort.Strings(streams)
	ingested := 0
	for _, sf := range streams {
		n, err := ingestStreamFile(a, sf, decodeBudget)
		ingested += n
		if err != nil {
			return ingested, err
		}
	}
	return ingested, nil
}

// ingestStreamFile drains one epoch-rotated report stream into the
// analyzer. CRC-damaged frames are skipped and reported, not fatal: the
// reader stays framed past a corrupt record.
func ingestStreamFile(a *analyzer.Analyzer, path string, decodeBudget int) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sr, err := report.NewStreamReader(f)
	if err != nil {
		return 0, fmt.Errorf("reading %s: %w", path, err)
	}
	ingested := 0
	var fr report.Frame
	for {
		err := sr.Next(&fr)
		if err == io.EOF {
			break
		}
		if err != nil {
			return ingested, fmt.Errorf("reading %s: %w", path, err)
		}
		if fr.Type != report.FrameReport {
			continue
		}
		rep, err := fr.Report()
		if err != nil {
			return ingested, fmt.Errorf("decoding %s frame %d: %w", path, ingested, err)
		}
		q := report.NewQueryable(rep)
		if decodeBudget > 0 {
			q.SetDecodeBudget(decodeBudget)
		}
		a.AddQueryable(q)
		ingested++
	}
	if bad := sr.CRCErrors(); bad > 0 {
		fmt.Fprintf(os.Stderr, "umon-analyze: %s: %d corrupt frames skipped\n", path, bad)
	}
	return ingested, nil
}
