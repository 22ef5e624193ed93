package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/opsapi"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

func testKey(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000101 + uint32(i), DstIP: 0x0a000f01,
		SrcPort: uint16(40000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

// startDaemon serves a populated collector the way umon-collect does:
// telemetry mux + ops API + hub. Returns the address, the collector and the
// hub so tests can emit live events and close the stream.
func startDaemon(t *testing.T) (addr string, col *collect.Collector, hub *opsapi.Hub, mu *sync.Mutex) {
	t.Helper()
	reg := telemetry.NewRegistry()
	stats := collect.NewStats(reg)
	hub = opsapi.NewHub()
	clock := int64(10_000)
	col = collect.New(collect.Config{
		WindowEpochs: 8, GapNs: 50_000, Stats: stats,
		OnEvent: func(analyzer.Event) { hub.Notify() },
		Now:     func() int64 { clock += 100; return clock },
	})
	for e := uint64(0); e < 3; e++ {
		for h := 0; h < 2; h++ {
			s, err := wavesketch.NewBasic(wavesketch.Default(16))
			if err != nil {
				t.Fatal(err)
			}
			s.Update(testKey(h), 10, 4096)
			s.Seal()
			col.AddStamped(e, report.FromBasic(h, 0, s),
				report.EpochStamp{SealNs: 1_000, ShipNs: 2_000})
		}
	}
	f := testKey(0)
	for _, ns := range []int64{1_000, 2_000, 200_000} {
		col.AddMirror(uevent.MirrorRecord{
			Port: netsim.PortID{Switch: 2, Port: 1}, TimestampNs: ns,
			OrigBytes: 1058, WireBytes: 64, Flow: f,
		})
	}
	if col.Poll() != 1 {
		t.Fatal("fixture expected one event")
	}

	mu = &sync.Mutex{}
	mux := telemetry.NewMux(reg)
	opsapi.New(opsapi.Config{Collector: col, Hub: hub, Stats: stats}).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://"), col, hub, mu
}

func runCtl(t *testing.T, addr string, args ...string) (string, string, int) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := ctl(append([]string{"-addr", addr}, args...), &out, &errOut)
	return out.String(), errOut.String(), code
}

func TestCtlStatus(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, errOut, code := runCtl(t, addr, "status")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"window", "6 reports", "watermark   0.200ms", "events      1 emitted", "2 reporting",
		"snapshot    v", "windows [10, 11)", "routing     no flow queries yet"} {
		if !strings.Contains(out, want) {
			t.Errorf("status output missing %q:\n%s", want, out)
		}
	}
}

func TestCtlHosts(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, _, code := runCtl(t, addr, "hosts")
	if code != 0 {
		t.Fatal(out)
	}
	if !strings.Contains(out, "host 0") || !strings.Contains(out, "host 1") ||
		!strings.Contains(out, "3 epochs resident") {
		t.Errorf("hosts output:\n%s", out)
	}
}

func TestCtlQueryMatchesCollector(t *testing.T) {
	addr, col, _, _ := startDaemon(t)
	f := testKey(0)
	out, errOut, code := runCtl(t, addr, "query", "-flow", f.String(), "-from", "10", "-to", "12")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	want := col.QueryFlow(f, 10, 12)
	if want[0] == 0 {
		t.Fatal("fixture flow invisible")
	}
	if !strings.Contains(out, "w10") {
		t.Errorf("query output missing window line:\n%s", out)
	}
}

func TestCtlReplay(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, errOut, code := runCtl(t, addr, "replay", "-event", "0", "-margin-us", "100")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "event 0  sw2/p1") || !strings.Contains(out, "bytes over") {
		t.Errorf("replay output:\n%s", out)
	}
}

func TestCtlEventsJSONLines(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, _, code := runCtl(t, addr, "events")
	if code != 0 {
		t.Fatal(out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 1 {
		t.Fatalf("events printed %d lines, want 1:\n%s", len(lines), out)
	}
	var ev opsapi.EventJSON
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line not JSON: %v\n%s", err, lines[0])
	}
	if ev.StartNs != 1000 || ev.EndNs != 2000 || ev.Switch != 2 {
		t.Errorf("event = %+v", ev)
	}
}

// TestCtlEventsFollow streams live: backlog, then the events a drain
// emits, then clean exit on hub close — the CI smoke's exact shape.
func TestCtlEventsFollow(t *testing.T) {
	addr, col, hub, mu := startDaemon(t)
	outCh := make(chan string, 1)
	codeCh := make(chan int, 1)
	var out bytes.Buffer
	go func() {
		code := ctl([]string{"-addr", addr, "events", "-follow"}, &out, &out)
		outCh <- out.String()
		codeCh <- code
	}()
	time.Sleep(100 * time.Millisecond) // follower connects and drains backlog
	mu.Lock()
	for _, ns := range []int64{500_000, 501_000, 502_000} {
		col.AddMirror(uevent.MirrorRecord{
			Port: netsim.PortID{Switch: 9, Port: 9}, TimestampNs: ns,
			OrigBytes: 1058, WireBytes: 64, Flow: testKey(3),
		})
	}
	col.Drain() // emits the open cluster at 200µs on sw2, then sw9's
	mu.Unlock()
	hub.Close()
	select {
	case got := <-outCh:
		if code := <-codeCh; code != 0 {
			t.Fatalf("exit %d:\n%s", code, got)
		}
		lines := strings.Split(strings.TrimSpace(got), "\n")
		if len(lines) != 3 {
			t.Fatalf("followed %d events, want 3:\n%s", len(lines), got)
		}
		var ev opsapi.EventJSON
		if err := json.Unmarshal([]byte(lines[2]), &ev); err != nil || ev.Switch != 9 || ev.Seq != 2 || ev.Packets != 3 {
			t.Errorf("live event line = %q (err %v)", lines[2], err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("follow never terminated")
	}
}

// TestCtlEventsFollowReportsGap: a gap frame goes to stderr, not to the
// events on stdout, and the stream carries on after it.
func TestCtlEventsFollowReportsGap(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		io.WriteString(w, "event: gap\ndata: {\"from\":1,\"to\":7}\n\n"+
			"id: 8\ndata: {\"seq\":7}\n\n"+
			"event: end\ndata: {}\n\n")
	}))
	defer srv.Close()
	out, errOut, code := runCtl(t, strings.TrimPrefix(srv.URL, "http://"), "events", "-follow")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if out != "{\"seq\":7}\n" {
		t.Errorf("stdout %q, want only event 7", out)
	}
	if !strings.Contains(errOut, `{"from":1,"to":7}`) {
		t.Errorf("stderr %q does not report the gap", errOut)
	}
}

func TestCtlTrace(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, errOut, code := runCtl(t, addr, "trace")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"seal→ship", "seal→detect", "traces        6 epochs", "host 0"} {
		if !strings.Contains(out, want) {
			t.Errorf("trace output missing %q:\n%s", want, out)
		}
	}
}

func TestCtlHealth(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	out, _, code := runCtl(t, addr, "health")
	if code != 0 {
		t.Fatal(out)
	}
	if !strings.Contains(out, `"status": "ok"`) {
		t.Errorf("health output:\n%s", out)
	}
}

func TestCtlErrors(t *testing.T) {
	addr, _, _, _ := startDaemon(t)
	if _, _, code := runCtl(t, addr, "bogus"); code != 2 {
		t.Errorf("unknown command exit = %d, want 2", code)
	}
	if _, _, code := runCtl(t, addr); code != 2 {
		t.Errorf("no command exit = %d, want 2", code)
	}
	if _, errOut, code := runCtl(t, addr, "query"); code != 1 || !strings.Contains(errOut, "-flow is required") {
		t.Errorf("query without flow: exit %d, err %q", code, errOut)
	}
	if _, _, code := runCtl(t, addr, "replay", "-event", "42"); code != 1 {
		t.Errorf("replay of missing event exit = %d, want 1", code)
	}
	// Unreachable daemon.
	if _, _, code := runCtl(t, "127.0.0.1:1", "status"); code != 1 {
		t.Errorf("unreachable daemon exit = %d, want 1", code)
	}
}
