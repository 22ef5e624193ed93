// umon-collect is the long-lived µMon collector daemon: it continuously
// ingests the epoch-rotated report stream hosts ship and the mirrored
// µEvent packets switches emit, holds a bounded sliding window of
// queryable epochs, and detects congestion events online — printing each
// event as soon as the mirror watermark proves it closed.
//
// Usage:
//
//	umon-collect -reports out/reports.umstream -mirrors out/mirrors.pcap
//	             [-window 16] [-epoch-ms 20] [-gap-us 50] [-decode-budget 0]
//	             [-follow] [-telemetry-addr :9107]
//	             [-summary-json out/summary.json] [-event-log out/events.jsonl]
//
// With -follow the daemon tails both inputs as they grow and runs until
// SIGINT/SIGTERM, then drains open events and prints a summary. Without
// it, umon-collect is the offline analyzer of a finished capture: it
// processes the files to EOF, prints the summary and exits. Either way the
// summary ends with the replay of the largest event — the rate of its
// first four flows around it, window by window (Figure 10c). A frame
// whose CRC fails is skipped and counted as bad, not fatal.
//
// -telemetry-addr serves the full introspection plane on one mux:
// /metrics, /vars, /healthz and /debug/pprof from the telemetry package,
// plus the live ops API (/api/status, /api/query/flow, /api/replay,
// /api/events with ?follow= streaming, /api/trace/epochs) answering
// against the live window — see cmd/umonctl for the client.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/mbuf"
	"umon/internal/measure"
	"umon/internal/opsapi"
	"umon/internal/telemetry"
)

func main() {
	reports := flag.String("reports", "", "epoch-rotated report stream (.umstream) from hosts")
	mirrors := flag.String("mirrors", "", "mirror pcap feed from switches")
	window := flag.Int("window", 16, "epochs kept resident; older epochs are evicted (0: unbounded)")
	epochMs := flag.Int64("epoch-ms", 20, "host sealing period in milliseconds")
	gapUs := flag.Int64("gap-us", 50, "event clustering gap in microseconds")
	decodeBudget := flag.Int("decode-budget", 0, "max resident decoded curves per report (0: unbounded)")
	follow := flag.Bool("follow", false, "tail growing inputs until SIGINT/SIGTERM instead of stopping at EOF")
	pollMs := flag.Int64("poll-ms", 50, "tail polling interval in -follow mode")
	quiet := flag.Bool("quiet", false, "suppress per-event lines (summary only)")
	telemetryAddr := flag.String("telemetry-addr", "", "serve telemetry + ops API on this address (/metrics, /healthz, /api/...)")
	telemetryDump := flag.Bool("telemetry-dump", false, "print a telemetry summary to stderr at end of run")
	summaryJSON := flag.String("summary-json", "", "write the final run stats as one JSON object to this file (- for stdout)")
	eventLog := flag.String("event-log", "", "append every emitted event as one JSON line to this file")
	flag.Parse()

	if *reports == "" && *mirrors == "" {
		flag.Usage()
		os.Exit(2)
	}
	reg := telemetry.NewRegistry()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err := run(ctx, options{
		reports:       *reports,
		mirrors:       *mirrors,
		window:        *window,
		epochNs:       *epochMs * 1_000_000,
		gapNs:         *gapUs * 1000,
		decodeBudget:  *decodeBudget,
		follow:        *follow,
		pollInterval:  time.Duration(*pollMs) * time.Millisecond,
		quiet:         *quiet,
		telemetryAddr: *telemetryAddr,
		summaryJSON:   *summaryJSON,
		eventLog:      *eventLog,
		out:           os.Stdout,
		onReady: func(addr string) {
			fmt.Fprintf(os.Stderr, "umon-collect: serving http://%s (/metrics, /healthz, /api/status)\n", addr)
		},
	}, reg)
	if *telemetryDump {
		reg.WriteSummary(os.Stderr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "umon-collect:", err)
		os.Exit(1)
	}
}

type options struct {
	reports, mirrors string
	window           int
	epochNs          int64
	gapNs            int64
	decodeBudget     int
	follow           bool
	pollInterval     time.Duration
	quiet            bool
	telemetryAddr    string
	summaryJSON      string
	eventLog         string
	out              io.Writer
	// onReady, when set, receives the bound introspection address once the
	// server is listening (used by main for the startup line and by tests
	// to learn a :0 port).
	onReady func(addr string)
}

// tailReader turns a growing file into a blocking stream: EOF means "no
// more bytes yet", so it polls until new data lands or the context ends —
// only then does it surface io.EOF to the consumer. Partial frames mid-
// write are invisible: the framed readers block until the writer finishes
// the frame, and hand over what was whole before it.
type tailReader struct {
	ctx  context.Context
	f    *os.File
	poll time.Duration
}

func (t *tailReader) Read(p []byte) (int, error) {
	for {
		n, err := t.f.Read(p)
		if n > 0 || err != io.EOF {
			return n, err
		}
		select {
		case <-t.ctx.Done():
			return 0, io.EOF
		case <-time.After(t.poll):
		}
	}
}

// lagSummary condenses a latency histogram for the JSON summary.
type lagSummary struct {
	Count  int64   `json:"count"`
	MeanNs float64 `json:"mean_ns"`
	P50Ns  int64   `json:"p50_le_ns"`
	P99Ns  int64   `json:"p99_le_ns"`
}

func summarizeLag(h *telemetry.Histogram) lagSummary {
	s := lagSummary{Count: h.Count(), P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99)}
	if s.Count > 0 {
		s.MeanNs = float64(h.Sum()) / float64(s.Count)
	}
	return s
}

// runSummary is the -summary-json object: the machine-readable form of
// the drain summary the daemon prints.
type runSummary struct {
	Events          int        `json:"events"`
	ReportsIngested int        `json:"reports_ingested"`
	BadReports      int        `json:"bad_reports"`
	MirrorsIngested int        `json:"mirrors_ingested"`
	BadMirrors      int        `json:"bad_mirrors"`
	ResidentEpochs  int        `json:"resident_epochs"`
	ResidentReports int        `json:"resident_reports"`
	Evictions       int64      `json:"evictions"`
	DetectLag       lagSummary `json:"detect_lag"`
	// Lifecycle stage latencies (wall clock), present when stamped reports
	// were ingested.
	SealShip    lagSummary `json:"seal_ship"`
	ShipAdmit   lagSummary `json:"ship_admit"`
	AdmitDetect lagSummary `json:"admit_detect"`
	SealDetect  lagSummary `json:"seal_detect"`
	// Event duration percentiles (ns), zero when no events.
	DurationP50Ns int64 `json:"duration_p50_ns"`
	DurationP90Ns int64 `json:"duration_p90_ns"`
	DurationP99Ns int64 `json:"duration_p99_ns"`
	DurationMaxNs int64 `json:"duration_max_ns"`
}

func run(ctx context.Context, opt options, reg *telemetry.Registry) error {
	stats := collect.NewStats(reg)
	// Reads — the ops API handlers and the end-of-run summary — go through
	// the collector's lock-free snapshot plane, events included: the hub
	// only wakes the API's followers. Events print from whichever feed loop
	// closes them.
	hub := opsapi.NewHub()

	var evLog *os.File
	if opt.eventLog != "" {
		f, err := os.Create(opt.eventLog)
		if err != nil {
			return err
		}
		evLog = f
		defer evLog.Close()
	}
	seq := 0
	onEvent := func(ev analyzer.Event) {
		hub.Notify()
		if evLog != nil {
			b, _ := json.Marshal(opsapi.NewEventJSON(seq, ev))
			fmt.Fprintf(evLog, "%s\n", b)
		}
		seq++
		if opt.quiet {
			return
		}
		fmt.Fprintf(opt.out, "event  sw%d/p%d  t=%.0f-%.0fus  %d pkts  %d flows\n",
			ev.Port.Switch, ev.Port.Port,
			float64(ev.StartNs)/1000, float64(ev.EndNs)/1000,
			ev.Packets, len(ev.Flows))
	}
	c := collect.New(collect.Config{
		WindowEpochs: opt.window,
		EpochNs:      opt.epochNs,
		GapNs:        opt.gapNs,
		DecodeBudget: opt.decodeBudget,
		OnEvent:      onEvent,
		Stats:        stats,
	})

	var srv *telemetry.Server
	if opt.telemetryAddr != "" {
		mux := telemetry.NewMux(reg)
		opsapi.New(opsapi.Config{Collector: c, Hub: hub, Stats: stats}).Mount(mux)
		var err error
		if srv, err = telemetry.ServeHandler(opt.telemetryAddr, mux); err != nil {
			return err
		}
		if opt.onReady != nil {
			opt.onReady(srv.Addr())
		}
	}

	// The two feeds run side by side through the collector's own loops,
	// which serialize with each other inside it. A feed that ends in a torn
	// frame or record once the context is done was cut off mid-write while
	// tailing: that is the shutdown, not an error.
	var wg sync.WaitGroup
	errCh := make(chan error, 2)
	var reportsIn, mirrorsIn, badReports, badMirrors int
	feed := func(path string, ingest func(io.Reader) error) error {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		var rd io.Reader = f
		if opt.follow {
			rd = &tailReader{ctx: ctx, f: f, poll: opt.pollInterval}
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer f.Close()
			if err := ingest(rd); err != nil && !(errors.Is(err, io.ErrUnexpectedEOF) && ctx.Err() != nil) {
				errCh <- fmt.Errorf("reading %s: %w", path, err)
			}
		}()
		return nil
	}
	if opt.reports != "" {
		if err := feed(opt.reports, func(rd io.Reader) (err error) {
			reportsIn, badReports, err = c.IngestStream(rd)
			return err
		}); err != nil {
			return err
		}
	}
	if opt.mirrors != "" {
		pool := mbuf.New(mbuf.Config{Stats: mbuf.NewPoolStats(reg)})
		if err := feed(opt.mirrors, func(rd io.Reader) (err error) {
			mirrorsIn, badMirrors, err = c.IngestMirrorPcap(rd, pool)
			return err
		}); err != nil {
			return err
		}
	}

	wg.Wait()
	select {
	case err := <-errCh:
		return err
	default:
	}

	// End of input (or shutdown): close every still-open event and report.
	// Drain publishes the final events through OnEvent (so followers see
	// them), then the hub closes and streaming clients get their end frame
	// before the server shuts down gracefully.
	events := c.Drain() // the newest collect.EventLogCap of them
	detected := c.Status().EventsEmitted
	epochs, resident := c.Window()
	hub.Close()

	fmt.Fprintf(opt.out, "ingested      %d epoch reports (%d bad), %d mirrors (%d bad)\n",
		reportsIn, badReports, mirrorsIn, badMirrors)
	fmt.Fprintf(opt.out, "window        %d epochs resident (%d reports), %d evicted\n",
		len(epochs), resident, reg.Value("umon_collect_evictions_total"))
	fmt.Fprintf(opt.out, "events        %d detected (gap %dus)\n", detected, opt.gapNs/1000)
	if n := stats.DetectLagNs.Count(); n > 0 {
		fmt.Fprintf(opt.out, "detect lag    %.0fus mean over %d online emissions\n",
			float64(stats.DetectLagNs.Sum())/float64(n)/1000, n)
	}
	sum := runSummary{
		Events:          detected,
		ReportsIngested: reportsIn,
		BadReports:      badReports,
		MirrorsIngested: mirrorsIn,
		BadMirrors:      badMirrors,
		ResidentEpochs:  len(epochs),
		ResidentReports: resident,
		Evictions:       reg.Value("umon_collect_evictions_total"),
		DetectLag:       summarizeLag(stats.DetectLagNs),
		SealShip:        summarizeLag(stats.SealShipNs),
		ShipAdmit:       summarizeLag(stats.ShipAdmitNs),
		AdmitDetect:     summarizeLag(stats.AdmitDetectNs),
		SealDetect:      summarizeLag(stats.SealDetectNs),
	}
	if len(events) > 0 {
		ds := analyzer.Durations(events)
		sum.DurationP50Ns, sum.DurationP90Ns = ds.P50Ns, ds.P90Ns
		sum.DurationP99Ns, sum.DurationMaxNs = ds.P99Ns, ds.MaxNs
		fmt.Fprintf(opt.out, "durations     p50 %.0fus  p90 %.0fus  p99 %.0fus  max %.0fus\n",
			float64(ds.P50Ns)/1000, float64(ds.P90Ns)/1000,
			float64(ds.P99Ns)/1000, float64(ds.MaxNs)/1000)
		best := events[0]
		for _, ev := range events {
			if ev.Packets > best.Packets {
				best = ev
			}
		}
		view := c.Replay(best, 250_000)
		var mass float64
		for _, curve := range view.Curves {
			for _, v := range curve {
				mass += v
			}
		}
		fmt.Fprintf(opt.out, "replay        largest event %s: %d flows, %.0f bytes over %d windows\n",
			best.String(), len(view.Curves), mass, view.Windows)
		if mass > 0 {
			printReplay(opt.out, view)
		}
	}
	if opt.summaryJSON != "" {
		if err := writeSummaryJSON(opt.summaryJSON, opt.out, sum); err != nil {
			return err
		}
	}
	if srv != nil {
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			return fmt.Errorf("shutting down introspection server: %w", err)
		}
	}
	return nil
}

// printReplay writes the Figure 10c table of a replay: the rate of the
// event's first four flows in every (windows/24)-th window of the view, the
// windows inside the event marked.
func printReplay(w io.Writer, view *analyzer.ReplayView) {
	ev := view.Event
	flows := ev.Flows[:min(4, len(ev.Flows))]
	header := fmt.Sprintf("  %-12s", "window")
	for i := range flows {
		header += fmt.Sprintf("  flow%-2d(Gbps)", i)
	}
	fmt.Fprintln(w, header)
	step := max(1, view.Windows/24)
	for i := 0; i < view.Windows; i += step {
		win := view.WindowStart + int64(i)
		line := fmt.Sprintf("  %-12d", win)
		for _, fk := range flows {
			line += fmt.Sprintf("  %-12.2f", analyzer.RateGbps(view.Curves[fk][i]))
		}
		line = strings.TrimRight(line, " ")
		if ns := win * measure.WindowNanos; ns >= ev.StartNs && ns <= ev.EndNs {
			line += "  <- event"
		}
		fmt.Fprintln(w, line)
	}
}

func writeSummaryJSON(path string, stdout io.Writer, sum runSummary) error {
	w := stdout
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sum)
}
