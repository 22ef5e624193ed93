package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"umon/internal/collect"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/opsapi"
	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

func testFlow(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000101 + uint32(i), DstIP: 0x0a000201,
		SrcPort: uint16(9000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// writeArtifacts fabricates a matching (reports.umstream, mirrors.pcap)
// pair: three epochs of reports for two hosts, and two bursts of mirrors
// separated by a quiet valley so online detection closes the first burst
// before input ends.
func writeArtifacts(t *testing.T, dir string) (reportsPath, mirrorsPath string) {
	t.Helper()
	reportsPath = filepath.Join(dir, "reports.umstream")
	mirrorsPath = filepath.Join(dir, "mirrors.pcap")

	rf, err := os.Create(reportsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	sw, err := report.NewStreamWriter(rf)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 3; e++ {
		for h := 0; h < 2; h++ {
			s, err := wavesketch.NewBasic(wavesketch.Default(16))
			if err != nil {
				t.Fatal(err)
			}
			s.Update(testFlow(h), 12, 4096)
			s.Seal()
			if err := sw.WriteEncoded(e, h, report.FromBasic(h, 0, s).AppendEncode(nil)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	mf, err := os.Create(mirrorsPath)
	if err != nil {
		t.Fatal(err)
	}
	defer mf.Close()
	w := pcapio.NewWriter(mf, 0)
	writeBurst := func(startNs int64, n int) {
		for i := 0; i < n; i++ {
			rec := uevent.MirrorRecord{
				Port:        netsim.PortID{Switch: 2, Port: 1},
				TimestampNs: startNs + int64(i)*5_000,
				PSN:         uint32(i * 64),
				OrigBytes:   1058, WireBytes: 1058,
				Flow: testFlow(i % 2),
			}
			if err := w.WritePacket(pcapio.Packet{
				TimestampNs: rec.TimestampNs,
				Data:        uevent.AppendMirrorPacket(nil, rec),
				OrigLen:     1058,
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
	writeBurst(100_000, 20)
	writeBurst(2_000_000, 20)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return reportsPath, mirrorsPath
}

func TestCollectOneShot(t *testing.T) {
	dir := t.TempDir()
	reports, mirrors := writeArtifacts(t, dir)
	reg := telemetry.NewRegistry()
	var out bytes.Buffer
	err := run(context.Background(), options{
		reports: reports, mirrors: mirrors,
		window: 16, epochNs: 20_000_000, gapNs: 50_000,
		out: &out,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if !strings.Contains(text, "events        2 detected") {
		t.Errorf("summary missing the two burst events:\n%s", text)
	}
	if !strings.Contains(text, "ingested      6 epoch reports (0 bad), 40 mirrors (0 bad)") {
		t.Errorf("summary ingest line wrong:\n%s", text)
	}
	// The first burst must have closed online (lag measured), not at Drain.
	if reg.Value("umon_collect_detect_lag_ns") == 0 {
		t.Error("no online event emission observed")
	}
	if !strings.Contains(text, "replay        largest event") {
		t.Errorf("summary missing replay line:\n%s", text)
	}
}

// TestCollectFollowShutdown exercises the daemon shape: inputs grow while
// the collector tails them; cancelling the context (the SIGTERM path)
// drains and summarizes.
func TestCollectFollowShutdown(t *testing.T) {
	dir := t.TempDir()
	// Start with complete artifacts; follow mode will read them and then
	// idle at EOF until cancelled.
	reports, mirrors := writeArtifacts(t, dir)
	reg := telemetry.NewRegistry()
	var out bytes.Buffer

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = run(ctx, options{
			reports: reports, mirrors: mirrors,
			window: 16, epochNs: 20_000_000, gapNs: 50_000,
			follow: true, pollInterval: 5 * time.Millisecond,
			quiet: true, out: &out,
		}, reg)
	}()

	// Wait until the tailing daemon has ingested everything, then shut it
	// down like SIGTERM would.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Value("umon_collect_mirrors_ingested_total") < 40 ||
		reg.Value("umon_collect_reports_ingested_total") < 6 {
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("daemon never ingested the artifacts (err %v)", runErr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if !strings.Contains(out.String(), "events        2 detected") {
		t.Errorf("shutdown summary missing events:\n%s", out.String())
	}
}

// TestCollectSummaryJSONAndEventLog runs a one-shot collect with the two
// machine-readable outputs and checks both against the known artifacts:
// the summary object carries the drain stats, the JSONL log carries one
// parseable line per emitted event.
func TestCollectSummaryJSONAndEventLog(t *testing.T) {
	dir := t.TempDir()
	reports, mirrors := writeArtifacts(t, dir)
	summaryPath := filepath.Join(dir, "summary.json")
	eventLogPath := filepath.Join(dir, "events.jsonl")
	reg := telemetry.NewRegistry()
	var out bytes.Buffer
	err := run(context.Background(), options{
		reports: reports, mirrors: mirrors,
		window: 16, epochNs: 20_000_000, gapNs: 50_000,
		summaryJSON: summaryPath, eventLog: eventLogPath,
		quiet: true, out: &out,
	}, reg)
	if err != nil {
		t.Fatal(err)
	}

	b, err := os.ReadFile(summaryPath)
	if err != nil {
		t.Fatal(err)
	}
	var sum runSummary
	if err := json.Unmarshal(b, &sum); err != nil {
		t.Fatalf("summary not one JSON object: %v\n%s", err, b)
	}
	if sum.Events != 2 || sum.ReportsIngested != 6 || sum.MirrorsIngested != 40 {
		t.Errorf("summary = %+v", sum)
	}
	if sum.DetectLag.Count == 0 || sum.DetectLag.P50Ns <= 0 || sum.DetectLag.P99Ns < sum.DetectLag.P50Ns {
		t.Errorf("detect lag percentiles = %+v", sum.DetectLag)
	}
	if sum.DurationP50Ns <= 0 || sum.DurationMaxNs < sum.DurationP99Ns {
		t.Errorf("duration percentiles = %+v", sum)
	}

	lb, err := os.ReadFile(eventLogPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(lb)), "\n")
	if len(lines) != 2 {
		t.Fatalf("event log has %d lines, want 2:\n%s", len(lines), lb)
	}
	for i, line := range lines {
		var ev opsapi.EventJSON
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d not EventJSON: %v\n%s", i, err, line)
		}
		if ev.Seq != i || ev.Packets != 20 || ev.Switch != 2 {
			t.Errorf("line %d = %+v", i, ev)
		}
	}
}

// TestCollectServesOpsAPI is the in-process e2e: a tailing daemon serves
// the ops API on a live window; a follower streams /api/events over SSE
// while ingest runs; after shutdown the streamed set equals the drain
// summary's event count, and /api/status answered the live window.
func TestCollectServesOpsAPI(t *testing.T) {
	dir := t.TempDir()
	reports, mirrors := writeArtifacts(t, dir)
	reg := telemetry.NewRegistry()
	var out bytes.Buffer
	addrCh := make(chan string, 1)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var runErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		runErr = run(ctx, options{
			reports: reports, mirrors: mirrors,
			window: 16, epochNs: 20_000_000, gapNs: 50_000,
			follow: true, pollInterval: 5 * time.Millisecond,
			quiet: true, out: &out,
			telemetryAddr: "127.0.0.1:0",
			onReady:       func(addr string) { addrCh <- addr },
		}, reg)
	}()

	var addr string
	select {
	case addr = <-addrCh:
	case <-time.After(5 * time.Second):
		cancel()
		wg.Wait()
		t.Fatalf("server never came up (err %v)", runErr)
	}

	// Start the SSE follower before ingest finishes.
	sseResp, err := http.Get("http://" + addr + "/api/events?follow=")
	if err != nil {
		t.Fatal(err)
	}
	defer sseResp.Body.Close()
	type streamed struct {
		events []opsapi.EventJSON
		ended  bool
	}
	streamDone := make(chan streamed, 1)
	go func() {
		var got streamed
		sc := bufio.NewScanner(sseResp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "data: ") && line != "data: {}" {
				var ev opsapi.EventJSON
				if json.Unmarshal([]byte(line[6:]), &ev) == nil {
					got.events = append(got.events, ev)
				}
			}
			if line == "event: end" {
				got.ended = true
			}
		}
		streamDone <- got
	}()

	// Wait for full ingest, then check liveness + live status.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Value("umon_collect_mirrors_ingested_total") < 40 ||
		reg.Value("umon_collect_reports_ingested_total") < 6 {
		if time.Now().After(deadline) {
			cancel()
			wg.Wait()
			t.Fatalf("daemon never ingested artifacts (err %v)", runErr)
		}
		time.Sleep(2 * time.Millisecond)
	}
	get := func(path string) []byte {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, b)
		}
		return b
	}
	if b := get("/healthz"); !strings.Contains(string(b), `"status": "ok"`) {
		t.Errorf("healthz = %s", b)
	}
	var st collect.Status
	if err := json.Unmarshal(get("/api/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.ReportsIngested != 6 || st.MirrorsIngested != 40 || len(st.Hosts) != 2 {
		t.Errorf("live status = %+v", st)
	}
	var tr struct {
		Traces []collect.EpochTrace `json:"traces"`
	}
	if err := json.Unmarshal(get("/api/trace/epochs"), &tr); err != nil {
		t.Fatal(err)
	}
	if len(tr.Traces) != 6 {
		t.Errorf("traced %d epochs, want 6", len(tr.Traces))
	}

	// SIGTERM path: drain, stream the final events, end the SSE cleanly.
	cancel()
	wg.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	var got streamed
	select {
	case got = <-streamDone:
	case <-time.After(5 * time.Second):
		t.Fatal("SSE follower never terminated after shutdown")
	}
	if !got.ended {
		t.Error("no end frame on the event stream")
	}
	if len(got.events) != 2 {
		t.Fatalf("follower streamed %d events, drain summary says 2:\n%s", len(got.events), out.String())
	}
	if !strings.Contains(out.String(), "events        2 detected") {
		t.Errorf("drain summary disagrees:\n%s", out.String())
	}
}

// TestCollectReplayTable checks the file analyzer's Figure 10c table: the
// largest event's two flows, each host's report carrying 4096 bytes in
// window 12 (4 Gbps), sampled every other window of the 56-window view,
// and the event's own windows marked.
func TestCollectReplayTable(t *testing.T) {
	reports, mirrors := writeArtifacts(t, t.TempDir())
	var out bytes.Buffer
	err := run(context.Background(), options{
		reports: reports, mirrors: mirrors,
		window: 16, epochNs: 20_000_000, gapNs: 50_000,
		quiet: true, out: &out,
	}, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, line := range []string{
		"  window        flow0 (Gbps)  flow1 (Gbps)\n",
		"\n  12            4.00          4.00\n",
		"\n  14            0.00          0.00  <- event\n",
		"\n  54            0.00          0.00\n",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("replay table lacks %q:\n%s", line, text)
		}
	}
	if rows := strings.Count(text, "\n  ") - strings.Count(text, "\n  window"); rows != 28 {
		t.Errorf("replay table has %d rows, want 28:\n%s", rows, text)
	}
}

// TestCollectGarbageCapture hands a file that is no pcap as the mirror
// feed: the run must fail naming it.
func TestCollectGarbageCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.pcap")
	if err := os.WriteFile(path, []byte("not a pcap"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(context.Background(), options{
		mirrors: path, window: 4, epochNs: 20_000_000, gapNs: 50_000, out: &bytes.Buffer{},
	}, telemetry.NewRegistry())
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("garbage capture: err = %v, want one naming %s", err, path)
	}
}

// TestCollectTruncatedCapture cuts the capture mid-record: outside -follow
// the run must fail with the read error, and still hand every pooled
// buffer back.
func TestCollectTruncatedCapture(t *testing.T) {
	_, mirrors := writeArtifacts(t, t.TempDir())
	raw, err := os.ReadFile(mirrors)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mirrors, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	err = run(context.Background(), options{
		mirrors: mirrors, window: 4, epochNs: 20_000_000, gapNs: 50_000, out: &bytes.Buffer{},
	}, reg)
	if err == nil {
		t.Fatal("truncated capture must fail")
	}
	got := reg.Value("umon_mbuf_alloc_hits_total") + reg.Value("umon_mbuf_alloc_misses_total")
	if recycled := reg.Value("umon_mbuf_recycled_total"); got == 0 || recycled != got {
		t.Errorf("%d pooled buffers allocated, %d recycled", got, recycled)
	}
}

func TestCollectMissingInput(t *testing.T) {
	err := run(context.Background(), options{
		reports: filepath.Join(t.TempDir(), "absent.umstream"),
		window:  4, epochNs: 20_000_000, gapNs: 50_000, out: &bytes.Buffer{},
	}, telemetry.NewRegistry())
	if err == nil {
		t.Error("missing input must fail")
	}
}

// TestCollectMissingCapture names a mirror capture that does not exist:
// the run must fail naming it.
func TestCollectMissingCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nope.pcap")
	err := run(context.Background(), options{
		mirrors: path, window: 4, epochNs: 20_000_000, gapNs: 50_000, out: &bytes.Buffer{},
	}, telemetry.NewRegistry())
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Errorf("missing capture: err = %v, want one naming %s", err, path)
	}
}

// TestCollectMirrorsOnly analyzes a finished capture with no report
// stream beside it: both bursts are still detected from the mirrors alone.
func TestCollectMirrorsOnly(t *testing.T) {
	_, mirrors := writeArtifacts(t, t.TempDir())
	var out bytes.Buffer
	err := run(context.Background(), options{
		mirrors: mirrors, window: 16, epochNs: 20_000_000, gapNs: 50_000, out: &out,
	}, telemetry.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, line := range []string{
		"events        2 detected",
		"ingested      0 epoch reports (0 bad), 40 mirrors (0 bad)",
	} {
		if !strings.Contains(text, line) {
			t.Errorf("summary lacks %q:\n%s", line, text)
		}
	}
}
