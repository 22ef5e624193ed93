package opsapi

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

func key(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000101 + uint32(i), DstIP: 0x0a000f01,
		SrcPort: uint16(40000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

func mkReport(host int, f flowkey.Key, w int64, v int64) *report.HostReport {
	s, err := wavesketch.NewBasic(wavesketch.Default(16))
	if err != nil {
		panic(err)
	}
	s.Update(f, w, v)
	s.Seal()
	return report.FromBasic(host, 0, s)
}

func mirrorAt(sw, port int16, ns int64, f flowkey.Key) uevent.MirrorRecord {
	return uevent.MirrorRecord{
		Port:        netsim.PortID{Switch: sw, Port: port},
		TimestampNs: ns,
		OrigBytes:   1058,
		WireBytes:   64,
		Flow:        f,
	}
}

// fixture builds a collector with a populated window, one emitted event,
// stamped traces, and an API server over it.
type fixture struct {
	col   *collect.Collector
	stats *collect.Stats
	hub   *Hub
	mu    *sync.Mutex
	srv   *httptest.Server
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	reg := telemetry.NewRegistry()
	stats := collect.NewStats(reg)
	hub := NewHub()
	// A deterministic wall clock keeps lifecycle-stage latencies small and
	// assertable against the synthetic seal/ship stamps below.
	clock := int64(10_000)
	col := collect.New(collect.Config{
		WindowEpochs: 8,
		GapNs:        50_000,
		Stats:        stats,
		OnEvent:      func(analyzer.Event) { hub.Notify() },
		Now:          func() int64 { clock += 100; return clock },
	})
	for e := uint64(0); e < 3; e++ {
		for h := 0; h < 2; h++ {
			col.AddStamped(e, mkReport(h, key(h), 10+int64(e), 100*(int64(h)+1)),
				report.EpochStamp{SealNs: 1_000, ShipNs: 2_000})
		}
	}
	f := key(0)
	col.AddMirror(mirrorAt(2, 1, 1_000, f))
	col.AddMirror(mirrorAt(2, 1, 2_000, key(1)))
	col.AddMirror(mirrorAt(2, 1, 200_000, f))
	if col.Poll() != 1 {
		t.Fatal("fixture expected one emitted event")
	}

	// mu serializes the tests' own ingest goroutines (the collector's
	// mutators are single-writer); the API itself reads lock-free.
	mu := &sync.Mutex{}
	mux := telemetry.NewMux(reg)
	New(Config{Collector: col, Hub: hub, Stats: stats}).Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return &fixture{col: col, stats: stats, hub: hub, mu: mu, srv: srv}
}

func (fx *fixture) getJSON(t testing.TB, path string, v any) {
	t.Helper()
	resp, err := http.Get(fx.srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: decode: %v\n%s", path, err, body)
	}
}

// TestStatusMatchesInProcess pins the tentpole acceptance: the HTTP answer
// is the in-process Status, byte-for-byte through JSON.
func TestStatusMatchesInProcess(t *testing.T) {
	fx := newFixture(t)
	var got collect.Status
	fx.getJSON(t, "/api/status", &got)
	want := fx.col.Status()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("/api/status = %+v\nwant %+v", got, want)
	}
	if got.ResidentReports != 6 || len(got.Hosts) != 2 || !got.HasWatermark {
		t.Errorf("implausible status %+v", got)
	}
	// Epoch e's reports carry one sample at window 10+e.
	if got.WindowSpan != [2]int64{10, 13} {
		t.Errorf("window_span = %v, want [10 13)", got.WindowSpan)
	}
}

func TestHostsEndpoint(t *testing.T) {
	fx := newFixture(t)
	var got struct {
		Hosts []collect.HostWindow `json:"hosts"`
	}
	fx.getJSON(t, "/api/hosts", &got)
	if !reflect.DeepEqual(got.Hosts, fx.col.Status().Hosts) {
		t.Errorf("/api/hosts = %+v", got.Hosts)
	}
}

// TestQueryFlowMatchesInProcess round-trips a flow through its String form
// and checks the remote answer equals the live-window QueryFlow.
func TestQueryFlowMatchesInProcess(t *testing.T) {
	fx := newFixture(t)
	f := key(1)
	var got QueryFlowResponse
	fx.getJSON(t, "/api/query/flow?flow="+url.QueryEscape(f.String())+"&from=10&to=14", &got)
	want := fx.col.QueryFlow(f, 10, 14)
	if !reflect.DeepEqual(got.Windows, want) {
		t.Errorf("remote windows %v, in-process %v", got.Windows, want)
	}
	if got.Flow != f.String() || got.From != 10 || got.To != 14 {
		t.Errorf("echo fields = %+v", got)
	}
	// Sanity: the fixture actually planted this flow, so the curve is
	// non-zero somewhere.
	sum := 0.0
	for _, v := range want {
		sum += v
	}
	if sum == 0 {
		t.Fatal("fixture flow invisible — test proves nothing")
	}
}

// TestReplayMatchesInProcess checks the remote replay equals the
// in-process Replay of the same event, curve by curve.
func TestReplayMatchesInProcess(t *testing.T) {
	fx := newFixture(t)
	var got ReplayResponse
	fx.getJSON(t, "/api/replay?event=0&margin-us=100", &got)
	events := fx.col.Events()
	view := fx.col.Replay(events[0], 100_000)
	if got.WindowStart != view.WindowStart || got.Windows != view.Windows {
		t.Errorf("span %d+%d, want %d+%d", got.WindowStart, got.Windows, view.WindowStart, view.Windows)
	}
	if len(got.Curves) != len(view.Curves) {
		t.Fatalf("curves %d, want %d", len(got.Curves), len(view.Curves))
	}
	for f, want := range view.Curves {
		if !reflect.DeepEqual(got.Curves[f.String()], want) {
			t.Errorf("curve %s = %v, want %v", f, got.Curves[f.String()], want)
		}
	}
	if got.Event.Packets != events[0].Packets || got.Event.Switch != 2 {
		t.Errorf("event echo = %+v", got.Event)
	}
}

// TestTraceEndpoint checks the raw ring comes through plus stage summaries
// that reconcile: seal→ship + ship→admit + admit→detect == seal→detect.
func TestTraceEndpoint(t *testing.T) {
	fx := newFixture(t)
	var got TraceResponse
	fx.getJSON(t, "/api/trace/epochs", &got)
	if !reflect.DeepEqual(got.Traces, fx.col.Traces()) {
		t.Errorf("traces differ from in-process ring")
	}
	if len(got.Traces) != 6 {
		t.Errorf("traced %d epochs, want 6", len(got.Traces))
	}
	st := got.Stages
	if st == nil {
		t.Fatal("no stage summaries")
	}
	// All 6 admitted reports carry seal/ship stamps; only epoch 0's two
	// traces overlap the emitted event, so the tail stages saw exactly 2.
	if st["seal_ship"].Count != 6 || st["ship_admit"].Count != 6 {
		t.Errorf("stamped-stage counts = %d/%d, want 6/6", st["seal_ship"].Count, st["ship_admit"].Count)
	}
	if st["admit_detect"].Count != 2 || st["seal_detect"].Count != 2 {
		t.Errorf("detect-stage counts = %d/%d, want 2/2", st["admit_detect"].Count, st["seal_detect"].Count)
	}
	// Per-trace reconciliation over the exported raw records: stages
	// telescope to the end-to-end latency on every fully-stamped trace.
	detected := 0
	for _, tr := range got.Traces {
		if tr.DetectNs == 0 {
			continue
		}
		detected++
		stages := (tr.ShipNs - tr.SealNs) + (tr.AdmitNs - tr.ShipNs) + (tr.DetectNs - tr.AdmitNs)
		if stages != tr.DetectNs-tr.SealNs {
			t.Errorf("trace %+v: stage sum %d != end-to-end %d", tr, stages, tr.DetectNs-tr.SealNs)
		}
	}
	if detected != 2 {
		t.Errorf("detected traces = %d, want 2", detected)
	}
}

// TestEventsSnapshotAndCursor covers the non-follow path: full backlog,
// then an empty tail from the returned cursor.
func TestEventsSnapshotAndCursor(t *testing.T) {
	fx := newFixture(t)
	var got EventsResponse
	fx.getJSON(t, "/api/events", &got)
	if len(got.Events) != 1 || got.Next != 1 || !got.Open {
		t.Fatalf("events = %+v", got)
	}
	ev := got.Events[0]
	if ev.Switch != 2 || ev.Port != 1 || ev.StartNs != 1000 || ev.EndNs != 2000 {
		t.Errorf("event = %+v", ev)
	}
	if len(ev.Flows) != 2 {
		t.Errorf("flows = %v", ev.Flows)
	}
	for _, fs := range ev.Flows {
		if _, err := flowkey.Parse(fs); err != nil {
			t.Errorf("event flow %q not parseable: %v", fs, err)
		}
	}
	var tail EventsResponse
	fx.getJSON(t, "/api/events?since=1", &tail)
	if len(tail.Events) != 0 || tail.Next != 1 {
		t.Errorf("tail = %+v", tail)
	}
}

// TestEventsFollowStreamsLive subscribes over SSE, publishes more events
// through the live collector, closes the hub, and checks the subscriber
// saw the complete backlog + live set and then the end frame.
func TestEventsFollowStreamsLive(t *testing.T) {
	fx := newFixture(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, "GET", fx.srv.URL+"/api/events?follow=", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	type sse struct {
		id    string
		event string
		data  string
	}
	frames := make(chan sse, 16)
	go func() {
		defer close(frames)
		sc := bufio.NewScanner(resp.Body)
		var cur sse
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "id: "):
				cur.id = line[4:]
			case strings.HasPrefix(line, "event: "):
				cur.event = line[7:]
			case strings.HasPrefix(line, "data: "):
				cur.data = line[6:]
			case line == "":
				frames <- cur
				cur = sse{}
			}
		}
	}()

	next := func() sse {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			return f
		case <-ctx.Done():
			t.Fatal("timeout waiting for SSE frame")
		}
		panic("unreachable")
	}

	// Backlog first: the event emitted before the subscriber connected.
	f0 := next()
	var ev EventJSON
	if err := json.Unmarshal([]byte(f0.data), &ev); err != nil {
		t.Fatalf("frame %+v: %v", f0, err)
	}
	if ev.StartNs != 1000 || f0.id != "1" {
		t.Fatalf("backlog frame = %+v", f0)
	}

	// Publish more events through the live ingest path (locked, as the
	// daemon's loop would). Advancing the watermark to 500µs also closes
	// the fixture's leftover single-mirror cluster at 200µs on sw2.
	fx.mu.Lock()
	f := key(2)
	fx.col.AddMirror(mirrorAt(3, 0, 300_000, f))
	fx.col.AddMirror(mirrorAt(3, 0, 301_000, f))
	fx.col.AddMirror(mirrorAt(3, 0, 500_000, f))
	fx.col.Poll()
	fx.mu.Unlock()

	f1 := next()
	if err := json.Unmarshal([]byte(f1.data), &ev); err != nil {
		t.Fatalf("frame %+v: %v", f1, err)
	}
	if ev.StartNs != 200_000 || ev.Switch != 2 || f1.id != "2" {
		t.Fatalf("live frame 1 = %+v", f1)
	}
	f2 := next()
	if err := json.Unmarshal([]byte(f2.data), &ev); err != nil {
		t.Fatalf("frame %+v: %v", f2, err)
	}
	if ev.StartNs != 300_000 || ev.Switch != 3 || f2.id != "3" {
		t.Fatalf("live frame 2 = %+v", f2)
	}

	fx.hub.Close()
	end := next()
	if end.event != "end" {
		t.Fatalf("final frame = %+v, want end", end)
	}
}

// TestEventsLongPoll holds a wait_ms request open until the collector
// emits.
func TestEventsLongPoll(t *testing.T) {
	fx := newFixture(t)
	done := make(chan EventsResponse, 1)
	go func() {
		var got EventsResponse
		fx.getJSON(t, "/api/events?since=1&wait_ms=5000", &got)
		done <- got
	}()
	time.Sleep(50 * time.Millisecond) // let the poller park
	// A mirror at 500µs closes the fixture's open cluster at 200µs on sw2.
	fx.mu.Lock()
	fx.col.AddMirror(mirrorAt(3, 0, 500_000, key(2)))
	fx.col.Poll()
	fx.mu.Unlock()
	select {
	case got := <-done:
		if len(got.Events) != 1 || got.Events[0].StartNs != 200_000 || got.Events[0].Seq != 1 || got.Next != 2 || !got.Open {
			t.Errorf("long-poll = %+v", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}
}

func TestBadRequests(t *testing.T) {
	fx := newFixture(t)
	for path, want := range map[string]int{
		"/api/query/flow?flow=bogus&from=0&to=1":                   http.StatusBadRequest,
		"/api/query/flow?flow=" + url.QueryEscape(key(0).String()): http.StatusBadRequest, // no from/to
		"/api/replay?event=notanint":                               http.StatusBadRequest,
		"/api/replay?event=99":                                     http.StatusNotFound,
		"/api/events?since=x":                                      http.StatusBadRequest,
	} {
		resp, err := http.Get(fx.srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s = %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestHostileRangesRejectedBeforeAllocation pins the remote-sized
// allocation fix: a caller cannot make the daemon allocate an answer of
// the size it names. Every such request is a 400, and serving them all
// allocates less than one honest answer would.
func TestHostileRangesRejectedBeforeAllocation(t *testing.T) {
	fx := newFixture(t)
	flow := url.QueryEscape(key(0).String())
	hostile := []string{
		"/api/query/flow?flow=" + flow + "&from=0&to=1099511627776",
		"/api/query/flow?flow=" + flow + "&from=0&to=1048577",
		"/api/query/flow?flow=" + flow + "&from=5&to=3",
		"/api/query/flow?flow=" + flow + "&from=-9223372036854775808&to=9223372036854775807",
		"/api/query/flow?flow=" + flow + "&from=9223372036854775807&to=-9223372036854775808",
		"/api/replay?event=0&margin-us=4400000", // 2 × 4.4 s is past 2^20 windows of 8.192 µs
		"/api/replay?event=0&margin-us=9223372036854775807",
		"/api/replay?event=0&margin-us=9223372036854775",
		"/api/replay?event=0&margin-us=-1",
	}
	handler := fx.srv.Config.Handler
	reqs := make([]*http.Request, len(hostile)) // built outside the measurement
	recs := make([]*httptest.ResponseRecorder, len(hostile))
	for i, path := range hostile {
		reqs[i], recs[i] = httptest.NewRequest(http.MethodGet, path, nil), httptest.NewRecorder()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range reqs {
		handler.ServeHTTP(recs[i], reqs[i])
	}
	runtime.ReadMemStats(&after)
	for i, path := range hostile {
		if recs[i].Code != http.StatusBadRequest {
			t.Errorf("GET %s = %d, want 400", path, recs[i].Code)
		}
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d hostile requests allocated %d bytes", len(hostile), got)
	if got >= 64<<10 {
		t.Errorf("allocated %d bytes, want < 64 KB", got)
	}
	// The largest range and margin still served.
	for _, path := range []string{
		"/api/query/flow?flow=" + flow + "&from=-1048570&to=6",
		"/api/replay?event=0&margin-us=4000000",
	} {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Errorf("GET %s = %d, want 200", path, rec.Code)
		}
	}
}

// TestFollowWithoutHub pins the degraded mode: snapshots work, follow 501s.
func TestFollowWithoutHub(t *testing.T) {
	col := collect.New(collect.Config{})
	mux := http.NewServeMux()
	New(Config{Collector: col}).Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/events?follow=")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("follow without hub = %d", resp.StatusCode)
	}
	resp, err = http.Get(srv.URL + "/api/events")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("snapshot without hub = %d", resp.StatusCode)
	}

	// A cursor from outside is clamped to the log, as the hub clamps it: a
	// negative one reads from the start, one past the end reads nothing.
	f := key(1)
	col.AddMirror(mirrorAt(0, 0, 1_000, f))
	col.AddMirror(mirrorAt(0, 0, 200_000, f))
	col.Drain()
	for since, want := range map[string]int{"-1": 2, "-9223372036854775808": 2, "1": 1, "2": 0, "99": 0} {
		resp, err := http.Get(srv.URL + "/api/events?since=" + since)
		if err != nil {
			t.Fatal(err)
		}
		var got EventsResponse
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(got.Events) != want || got.Next != 2 {
			t.Errorf("since=%s: status %d, %d events, next %d (%v), want 200, %d events, next 2",
				since, resp.StatusCode, len(got.Events), got.Next, err, want)
		}
	}
}

// TestConcurrentQueriesDuringIngest races API reads against locked window
// mutation — the daemon's actual concurrency shape. Run under -race.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	fx := newFixture(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		e := uint64(3)
		for {
			select {
			case <-stop:
				return
			default:
			}
			fx.mu.Lock()
			fx.col.Add(e, mkReport(int(e%4), key(int(e%4)), 10, 100))
			fx.mu.Unlock()
			e++
		}
	}()
	paths := []string{
		"/api/status",
		"/api/hosts",
		"/api/query/flow?flow=" + url.QueryEscape(key(0).String()) + "&from=10&to=14",
		"/api/replay?event=0",
		"/api/events",
		"/api/trace/epochs",
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, err := http.Get(fx.srv.URL + paths[(w+i)%len(paths)])
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("status %d on %s", resp.StatusCode, paths[(w+i)%len(paths)])
				}
			}
		}(w)
	}
	// Wait for the query workers (all but the ingester), then stop it.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	time.Sleep(100 * time.Millisecond)
	close(stop)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("deadlock between ingest and API")
	}
}

// shrinkEventLog sets col's emission-log bound to n. The bound is no option
// of the collector; tests shrink it through its one unexported field so
// that the log trims after a handful of events rather than
// collect.EventLogCap.
func shrinkEventLog(col *collect.Collector, n int) {
	f := reflect.ValueOf(col).Elem().FieldByName("eventCap")
	reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem().SetInt(int64(n))
}

// emitEvents makes the fixture's collector emit n more events, one per poll:
// event id (from 1 on) starts at startOf(id). Its first mirror closes the
// fixture's open cluster at 200µs, which becomes event 1.
func (fx *fixture) emitEvents(n int) {
	fx.mu.Lock()
	defer fx.mu.Unlock()
	for emitted := fx.col.Status().EventsEmitted; n > 0; n-- {
		fx.col.AddMirror(mirrorAt(2, 1, startOf(emitted+1), key(emitted)))
		fx.col.Poll()
		emitted++
	}
}

func startOf(id int) int64 { return int64(id)*1_000_000 - 800_000 }

// TestHubLossless checks every event the collector emits reaches a follower
// that started late and paused mid-stream.
func TestHubLossless(t *testing.T) {
	fx := newFixture(t) // event 0 is emitted before the follower starts
	api := New(Config{Collector: fx.col, Hub: fx.hub})
	const total = 100
	var got []int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		cursor := 0
		for {
			evs, first, open := api.tail(context.Background(), cursor)
			if first != cursor {
				t.Errorf("follower at %d resumed at %d", cursor, first)
			}
			for _, ev := range evs {
				got = append(got, ev.StartNs)
			}
			cursor = first + len(evs)
			if !open {
				return
			}
		}
	}()
	fx.emitEvents(total / 2)
	time.Sleep(time.Millisecond) // let the follower catch up mid-stream
	fx.emitEvents(total - 1 - total/2)
	fx.hub.Close()
	<-done
	if len(got) != total {
		t.Fatalf("follower saw %d events, want %d", len(got), total)
	}
	for id, v := range got {
		if want := startOf(id); id > 0 && v != want {
			t.Fatalf("event %d starts at %d, want %d", id, v, want)
		}
	}
	// Notifying a closed hub is a no-op, and readers see it closed.
	fx.hub.Notify()
	if _, _, open := api.tail(context.Background(), total); open {
		t.Error("a closed hub reads open")
	}
}

// TestHubBoundedIdsStable shrinks the collector's log bound and emits three
// times as many events: ids stay emission indices across every trim, a
// dropped id is outside the log's [first, next), a stale cursor resumes at
// the oldest kept event with its true id, and /api/replay answers 410 for a
// dropped id, 404 past the end, and the logged event for a kept one.
func TestHubBoundedIdsStable(t *testing.T) {
	for _, keep := range []int{1, 4, 16} { // 16: trimmed with slack (keep/8 > 0)
		fx := newFixture(t) // the fixture's one event has id 0
		shrinkEventLog(fx.col, keep)
		total := 3 * keep
		for id := 1; id < total; id++ {
			fx.emitEvents(1)
			evs, first := fx.col.Snapshot().EventLog()
			if next := first + len(evs); next != id+1 || next-first < min(keep, id+1) || next-first > keep+keep/8 {
				t.Fatalf("keep %d: after event %d the log keeps [%d, %d)", keep, id, first, next)
			}
		}
		evs, first := fx.col.Snapshot().EventLog()
		next := first + len(evs)
		if emitted := fx.col.Status().EventsEmitted; emitted != total || next != total || first == 0 {
			t.Fatalf("keep %d: %d emitted, log keeps [%d, %d), want %d emitted and event 0 dropped", keep, emitted, first, next, total)
		}
		for id := first; id < next; id++ {
			if ev := evs[id-first]; ev.StartNs != startOf(id) {
				t.Errorf("keep %d: event %d starts at %d", keep, id, ev.StartNs)
			}
		}
		var got EventsResponse
		fx.getJSON(t, "/api/events?since=0", &got)
		if got.Next != total || len(got.Events) != next-first || got.Events[0].Seq != first || got.Events[0].StartNs != startOf(first) {
			t.Errorf("keep %d: stale cursor read %d events from seq %d, next %d; want [%d, %d)",
				keep, len(got.Events), got.Events[0].Seq, got.Next, first, next)
		}
		var rep ReplayResponse
		fx.getJSON(t, "/api/replay?event="+strconv.Itoa(next-1), &rep)
		if rep.Event.Seq != next-1 || rep.Event.StartNs != startOf(next-1) {
			t.Errorf("keep %d: replay of %d echoes %+v", keep, next-1, rep.Event)
		}
		for path, want := range map[string]int{
			"/api/replay?event=0":                        http.StatusGone,
			"/api/replay?event=" + strconv.Itoa(first-1): http.StatusGone,
			"/api/replay?event=" + strconv.Itoa(first):   http.StatusOK,
			"/api/replay?event=" + strconv.Itoa(next):    http.StatusNotFound,
			"/api/replay?event=-1":                       http.StatusNotFound,
		} {
			resp, err := http.Get(fx.srv.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != want {
				t.Errorf("keep %d, kept [%d, %d): GET %s = %d, want %d", keep, first, next, path, resp.StatusCode, want)
			}
		}
	}
}

// TestFollowerGap: a follower whose cursor fell below the retained log is
// told which ids it missed, with a gap frame, before the stream resumes at
// the oldest retained event under its true id.
func TestFollowerGap(t *testing.T) {
	fx := newFixture(t)
	shrinkEventLog(fx.col, 4)
	fx.emitEvents(10) // ids 1..10; the log keeps the newest 4
	_, first := fx.col.Snapshot().EventLog()
	if first <= 1 {
		t.Fatalf("the log still holds event %d", first)
	}
	fx.hub.Close()
	// The follower read event 0 and resumes from cursor 1.
	resp, err := http.Get(fx.srv.URL + "/api/events?since=1&follow=")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	frames := strings.Split(strings.TrimSuffix(string(body), "\n\n"), "\n\n")
	want := fmt.Sprintf("event: gap\ndata: {\"from\":1,\"to\":%d}", first)
	if len(frames) == 0 || frames[0] != want {
		t.Fatalf("first frame %q, want %q", frames[0], want)
	}
	if len(frames) != 1+(11-first)+1 || frames[len(frames)-1] != "event: end\ndata: {}" {
		t.Fatalf("%d frames, want the gap, events %d..10 and the end:\n%s", len(frames), first, body)
	}
	for i, fr := range frames[1 : len(frames)-1] {
		id := first + i
		var ev EventJSON
		line := strings.SplitN(fr, "\n", 2)
		if line[0] != "id: "+strconv.Itoa(id+1) || json.Unmarshal([]byte(strings.TrimPrefix(line[1], "data: ")), &ev) != nil ||
			ev.Seq != id || ev.StartNs != startOf(id) {
			t.Errorf("frame %q, want event %d", fr, id)
		}
	}
}
