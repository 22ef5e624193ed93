// umonctl is the operator's client for a running umon-collect daemon: it
// speaks the JSON ops API the daemon serves on its -telemetry-addr and
// renders the answers for a terminal.
//
// Usage:
//
//	umonctl -addr 127.0.0.1:9107 <command> [flags]
//
// Commands:
//
//	status            window occupancy, watermark, ingest counters
//	hosts             per-host resident epoch lists
//	query  -flow K -from W -to W   per-window byte counts for one flow
//	replay -event N [-margin-us M] curves of every flow in an event
//	events [-since N] [-follow]    emitted events as JSON lines;
//	                               -follow streams live until the daemon drains
//	trace             epoch-lifecycle traces and stage latency summaries
//	health            daemon liveness + build identity
//
// events prints one JSON object per line in both modes, so the stream
// pipes into jq and the CI smoke can diff followed events against the
// daemon's drain summary.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"

	"umon/internal/collect"
	"umon/internal/opsapi"
)

func main() {
	os.Exit(ctl(os.Args[1:], os.Stdout, os.Stderr))
}

func usage(stderr io.Writer) int {
	fmt.Fprintln(stderr, "usage: umonctl [-addr host:port] status|hosts|query|replay|events|trace|health [flags]")
	return 2
}

// ctl runs one invocation; factored from main so tests drive it directly.
func ctl(args []string, stdout, stderr io.Writer) int {
	global := flag.NewFlagSet("umonctl", flag.ContinueOnError)
	global.SetOutput(stderr)
	addr := global.String("addr", "127.0.0.1:9107", "umon-collect introspection address")
	if err := global.Parse(args); err != nil {
		return 2
	}
	rest := global.Args()
	if len(rest) == 0 {
		return usage(stderr)
	}
	cmd, cmdArgs := rest[0], rest[1:]
	cl := &client{base: "http://" + *addr, stdout: stdout, stderr: stderr}
	var err error
	switch cmd {
	case "status":
		err = cl.status()
	case "hosts":
		err = cl.hosts()
	case "query":
		err = cl.query(cmdArgs)
	case "replay":
		err = cl.replay(cmdArgs)
	case "events":
		err = cl.events(cmdArgs)
	case "trace":
		err = cl.trace()
	case "health":
		err = cl.health()
	default:
		fmt.Fprintf(stderr, "umonctl: unknown command %q\n", cmd)
		return usage(stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "umonctl:", err)
		return 1
	}
	return 0
}

type client struct {
	base   string
	stdout io.Writer
	stderr io.Writer
}

func (c *client) getJSON(path string, v any) error {
	resp, err := http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return json.Unmarshal(body, v)
}

func (c *client) status() error {
	var st collect.Status
	if err := c.getJSON("/api/status", &st); err != nil {
		return err
	}
	w := c.stdout
	fmt.Fprintf(w, "window      %d/%d epochs resident (%d reports, %d curves), floor %d\n",
		len(st.Epochs), st.WindowEpochs, st.ResidentReports, st.ResidentCurves, st.EvictionFloor)
	if len(st.Epochs) > 0 {
		fmt.Fprintf(w, "epochs      %d..%d (epoch %dms, gap %dus)\n",
			st.Epochs[0], st.Epochs[len(st.Epochs)-1], st.EpochNs/1_000_000, st.GapNs/1000)
	}
	if st.HasWatermark {
		fmt.Fprintf(w, "watermark   %.3fms\n", float64(st.WatermarkNs)/1_000_000)
	} else {
		fmt.Fprintln(w, "watermark   none (no mirrors yet)")
	}
	fmt.Fprintf(w, "ingested    %d reports, %d mirrors\n", st.ReportsIngested, st.MirrorsIngested)
	fmt.Fprintf(w, "events      %d emitted\n", st.EventsEmitted)
	fmt.Fprintf(w, "hosts       %d reporting, %d epochs traced\n", len(st.Hosts), st.TracedEpochs)
	fmt.Fprintf(w, "snapshot    v%d, published %.3fms, windows [%d, %d)\n",
		st.SnapshotVersion, float64(st.SnapshotPublishNs)/1_000_000, st.WindowSpan[0], st.WindowSpan[1])
	if total := st.ReportsRouted + st.ReportsRouteSkipped; total > 0 {
		fmt.Fprintf(w, "routing     %d/%d reports visited (%.1f%% selectivity)\n",
			st.ReportsRouted, total, 100*float64(st.ReportsRouted)/float64(total))
	} else {
		fmt.Fprintln(w, "routing     no flow queries yet")
	}
	return nil
}

func (c *client) hosts() error {
	var resp struct {
		Hosts []collect.HostWindow `json:"hosts"`
	}
	if err := c.getJSON("/api/hosts", &resp); err != nil {
		return err
	}
	for _, h := range resp.Hosts {
		fmt.Fprintf(c.stdout, "host %-4d %d epochs resident: %v\n", h.Host, len(h.Epochs), h.Epochs)
	}
	if len(resp.Hosts) == 0 {
		fmt.Fprintln(c.stdout, "no hosts resident")
	}
	return nil
}

func (c *client) query(args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	flow := fs.String("flow", "", "flow key, e.g. 10.0.1.1:9000>10.0.2.1:4791/17")
	from := fs.Int64("from", 0, "first window id (inclusive)")
	to := fs.Int64("to", 0, "last window id (exclusive)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *flow == "" {
		return fmt.Errorf("query: -flow is required")
	}
	var resp opsapi.QueryFlowResponse
	path := fmt.Sprintf("/api/query/flow?flow=%s&from=%d&to=%d", url.QueryEscape(*flow), *from, *to)
	if err := c.getJSON(path, &resp); err != nil {
		return err
	}
	fmt.Fprintf(c.stdout, "flow %s windows [%d..%d)\n", resp.Flow, resp.From, resp.To)
	for i, v := range resp.Windows {
		if v != 0 {
			fmt.Fprintf(c.stdout, "  w%-6d %.0f bytes\n", resp.From+int64(i), v)
		}
	}
	return nil
}

func (c *client) replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	event := fs.Int("event", 0, "event index (see umonctl events)")
	marginUs := fs.Int64("margin-us", 100, "query margin around the event span")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var resp opsapi.ReplayResponse
	path := fmt.Sprintf("/api/replay?event=%d&margin-us=%d", *event, *marginUs)
	if err := c.getJSON(path, &resp); err != nil {
		return err
	}
	ev := resp.Event
	fmt.Fprintf(c.stdout, "event %d  sw%d/p%d  t=%.0f-%.0fus  %d pkts  %d bytes\n",
		ev.Seq, ev.Switch, ev.Port, float64(ev.StartNs)/1000, float64(ev.EndNs)/1000, ev.Packets, ev.Bytes)
	flows := make([]string, 0, len(resp.Curves))
	for f := range resp.Curves {
		flows = append(flows, f)
	}
	sort.Strings(flows)
	for _, f := range flows {
		var mass float64
		for _, v := range resp.Curves[f] {
			mass += v
		}
		fmt.Fprintf(c.stdout, "  %-44s %.0f bytes over %d windows from w%d\n",
			f, mass, resp.Windows, resp.WindowStart)
	}
	return nil
}

func (c *client) events(args []string) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	fs.SetOutput(c.stderr)
	since := fs.Int("since", 0, "resume cursor (from a previous next value)")
	follow := fs.Bool("follow", false, "stream live events until the daemon drains")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *follow {
		return c.followEvents(*since)
	}
	var resp opsapi.EventsResponse
	if err := c.getJSON(fmt.Sprintf("/api/events?since=%d", *since), &resp); err != nil {
		return err
	}
	enc := json.NewEncoder(c.stdout)
	for _, ev := range resp.Events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// followEvents consumes the daemon's SSE stream, printing each event as
// one JSON line, until the daemon signals the stream's end (drain) or the
// connection drops. A gap frame — the daemon's log no longer held the
// events the follower had not read — is reported on stderr.
func (c *client) followEvents(since int) error {
	resp, err := http.Get(fmt.Sprintf("%s/api/events?since=%d&follow=", c.base, since))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("follow: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	sc := bufio.NewScanner(resp.Body)
	kind := "" // the frame's event type; "" is an event
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			kind = ""
		case strings.HasPrefix(line, "event: "):
			kind = line[7:]
		case strings.HasPrefix(line, "data: "):
			switch kind {
			case "end":
				return nil
			case "gap":
				fmt.Fprintf(c.stderr, "umonctl: events missed, the follower fell behind the daemon's log: %s\n", line[6:])
			default:
				fmt.Fprintln(c.stdout, line[6:])
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("follow: stream: %w", err)
	}
	return nil
}

func (c *client) trace() error {
	var resp opsapi.TraceResponse
	if err := c.getJSON("/api/trace/epochs", &resp); err != nil {
		return err
	}
	order := []struct{ key, label string }{
		{"seal_ship", "seal→ship"},
		{"ship_admit", "ship→admit"},
		{"admit_detect", "admit→detect"},
		{"seal_detect", "seal→detect"},
	}
	for _, st := range order {
		s, ok := resp.Stages[st.key]
		if !ok {
			continue
		}
		mean := 0.0
		if s.Count > 0 {
			mean = float64(s.SumNs) / float64(s.Count)
		}
		fmt.Fprintf(c.stdout, "%-14s count=%-6d mean=%.0fns p50≤%dns p99≤%dns\n",
			st.label, s.Count, mean, s.P50Ns, s.P99Ns)
	}
	fmt.Fprintf(c.stdout, "traces        %d epochs\n", len(resp.Traces))
	for _, tr := range resp.Traces {
		fmt.Fprintf(c.stdout, "  host %-3d epoch %-6d seal=%d ship=%d admit=%d detect=%d\n",
			tr.Host, tr.Epoch, tr.SealNs, tr.ShipNs, tr.AdmitNs, tr.DetectNs)
	}
	return nil
}

func (c *client) health() error {
	resp, err := http.Get(c.base + "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("/healthz: %s", resp.Status)
	}
	_, err = c.stdout.Write(body)
	return err
}
