// Package opsapi is the collector daemon's live introspection plane: a
// JSON HTTP API mounted on the same mux as the telemetry endpoints, so one
// -telemetry-addr flag serves metrics, profiling, and operational queries
// against the live epoch window.
//
//	/api/status        window occupancy, watermark, ingest counters
//	/api/hosts         per-host resident epoch lists
//	/api/query/flow    QueryFlow against the live window
//	/api/replay        Replay of an emitted event
//	/api/events        emitted events; ?follow= streams live over SSE
//	/api/trace/epochs  epoch-lifecycle traces + per-stage latency summaries
//
// Every handler reads the collector's lock-free query plane: the
// Collector publishes an immutable window snapshot on each mutation and
// its read methods (Status, QueryFlow, Replay, Events, Traces) load it
// without taking the ingest lock. Handlers therefore never serialize with
// the daemon's ingest loop — a slow client cannot stall admission, and
// concurrent API load scales across cores. The counts and stage latencies
// they report are the collector's Stats, the series /metrics exports when
// the daemon registers them.
package opsapi

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/telemetry"
)

// API serves the introspection routes for one Collector.
type API struct {
	col *collect.Collector
	hub *Hub
}

// Config parameterizes New. Collector is required; Hub is optional.
type Config struct {
	// Collector is the live window the API answers from. Its read plane is
	// lock-free, so the API needs no serialization with the ingest loop.
	Collector *collect.Collector
	// Hub, when set, wakes /api/events long-polls and ?follow= streams, and
	// /api/events and /api/replay name events by emission index: ids into
	// the collector's Snapshot.EventLog. Without it, they index the
	// collector's retained events, sorted by (start, port), and ?follow= is
	// rejected.
	Hub *Hub
}

// New builds the API. It panics on a nil Collector — that is a wiring bug,
// not a runtime condition.
func New(cfg Config) *API {
	if cfg.Collector == nil {
		panic("opsapi: nil Collector")
	}
	return &API{col: cfg.Collector, hub: cfg.Hub}
}

// Mount registers the /api/ routes on mux (typically telemetry.NewMux's).
func (a *API) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/api/status", a.handleStatus)
	mux.HandleFunc("/api/hosts", a.handleHosts)
	mux.HandleFunc("/api/query/flow", a.handleQueryFlow)
	mux.HandleFunc("/api/replay", a.handleReplay)
	mux.HandleFunc("/api/events", a.handleEvents)
	mux.HandleFunc("/api/trace/epochs", a.handleTrace)
}

// EventJSON is the wire form of an emitted event: flat port fields and
// String-form flow keys, so clients parse flows with flowkey.Parse and
// feed them straight back into /api/query/flow.
type EventJSON struct {
	Seq        int      `json:"seq"`
	Switch     int16    `json:"switch"`
	Port       int16    `json:"port"`
	StartNs    int64    `json:"start_ns"`
	EndNs      int64    `json:"end_ns"`
	DurationNs int64    `json:"duration_ns"`
	Packets    int      `json:"packets"`
	Bytes      int64    `json:"bytes"`
	Flows      []string `json:"flows"`
}

// NewEventJSON renders one emitted event in wire form. The daemon reuses
// it for the JSONL event log, so logged lines and streamed frames are the
// same shape.
func NewEventJSON(seq int, ev analyzer.Event) EventJSON {
	flows := make([]string, len(ev.Flows))
	for i, f := range ev.Flows {
		flows[i] = f.String()
	}
	return EventJSON{
		Seq: seq, Switch: ev.Port.Switch, Port: ev.Port.Port,
		StartNs: ev.StartNs, EndNs: ev.EndNs, DurationNs: ev.EndNs - ev.StartNs,
		Packets: ev.Packets, Bytes: ev.Bytes, Flows: flows,
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func (a *API) handleStatus(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, a.col.Status())
}

func (a *API) handleHosts(w http.ResponseWriter, r *http.Request) {
	hosts := a.col.Status().Hosts
	writeJSON(w, struct {
		Hosts []collect.HostWindow `json:"hosts"`
	}{hosts})
}

// maxQueryWindows bounds the windows one request may ask for (≈8.6 s of
// 8.192 µs windows, far past any resident window): the answer is allocated
// at that size, so a remote caller must not choose it freely.
const maxQueryWindows = 1 << 20

// QueryFlowResponse answers /api/query/flow.
type QueryFlowResponse struct {
	Flow    string    `json:"flow"`
	From    int64     `json:"from"`
	To      int64     `json:"to"`
	Windows []float64 `json:"windows"`
}

func (a *API) handleQueryFlow(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f, err := flowkey.Parse(q.Get("flow"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	from, err1 := strconv.ParseInt(q.Get("from"), 10, 64)
	to, err2 := strconv.ParseInt(q.Get("to"), 10, 64)
	if err1 != nil || err2 != nil {
		http.Error(w, "from/to must be window ids", http.StatusBadRequest)
		return
	}
	if to < from || uint64(to-from) > maxQueryWindows {
		http.Error(w, fmt.Sprintf("to-from must be in [0, %d] windows", maxQueryWindows), http.StatusBadRequest)
		return
	}
	windows := a.col.QueryFlow(f, from, to)
	writeJSON(w, QueryFlowResponse{Flow: f.String(), From: from, To: to, Windows: windows})
}

// ReplayResponse answers /api/replay: the event plus each flow's
// per-window byte-count curve, keyed by String-form flow.
type ReplayResponse struct {
	Event       EventJSON            `json:"event"`
	WindowStart int64                `json:"window_start"`
	Windows     int                  `json:"windows"`
	Curves      map[string][]float64 `json:"curves"`
}

func (a *API) handleReplay(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	idx, err := strconv.Atoi(q.Get("event"))
	if err != nil {
		http.Error(w, "event must be an index into /api/events", http.StatusBadRequest)
		return
	}
	marginUs := int64(100)
	if s := q.Get("margin-us"); s != "" {
		if marginUs, err = strconv.ParseInt(s, 10, 64); err != nil {
			http.Error(w, "bad margin-us", http.StatusBadRequest)
			return
		}
	}
	// The id names what /api/events lists under it: the event of that
	// emission index, or without a hub the idx-th retained event, of the
	// snapshot that also serves the replay.
	snap := a.col.Snapshot()
	var ev analyzer.Event
	first, next := 0, 0
	if a.hub != nil {
		var evs []analyzer.Event
		evs, first = snap.EventLog()
		if next = first + len(evs); idx >= first && idx < next {
			ev = evs[idx-first]
		}
	} else {
		events := snap.Events()
		if next = len(events); idx >= 0 && idx < next {
			ev = events[idx]
		}
	}
	if idx < first || idx >= next {
		code := http.StatusNotFound
		if idx >= 0 && idx < first {
			code = http.StatusGone // dropped from the bounded backlog
		}
		http.Error(w, fmt.Sprintf("event %d not in [%d, %d)", idx, first, next), code)
		return
	}
	// A replay spans the event plus the margin on both sides. The first
	// bound keeps the second from overflowing.
	if marginUs < 0 || marginUs > maxQueryWindows*measure.WindowNanos/1000 ||
		(ev.DurationNs()+2*marginUs*1000)/measure.WindowNanos+4 > maxQueryWindows {
		http.Error(w, fmt.Sprintf("margin-us widens the replay past %d windows", maxQueryWindows), http.StatusBadRequest)
		return
	}
	view := snap.Replay(ev, marginUs*1000)
	resp := ReplayResponse{
		Event:       NewEventJSON(idx, view.Event),
		WindowStart: view.WindowStart,
		Windows:     view.Windows,
		Curves:      make(map[string][]float64, len(view.Curves)),
	}
	for f, c := range view.Curves {
		resp.Curves[f.String()] = c
	}
	writeJSON(w, resp)
}

// EventsResponse answers a non-follow /api/events: the backlog from
// ?since= on, and the cursor to resume from.
type EventsResponse struct {
	Next   int         `json:"next"`
	Open   bool        `json:"open"`
	Events []EventJSON `json:"events"`
}

func (a *API) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since := 0
	if s := q.Get("since"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			http.Error(w, "bad since cursor", http.StatusBadRequest)
			return
		}
		since = v
	}
	if _, follow := q["follow"]; follow {
		a.followEvents(w, r, since)
		return
	}
	var resp EventsResponse
	if a.hub != nil {
		// Long-poll: with wait_ms, hold the request until news, close, or
		// timeout. Deriving from the request context releases the handler
		// the moment a client drops.
		waitMs, _ := strconv.Atoi(q.Get("wait_ms"))
		ctx, cancel := context.WithTimeout(r.Context(), time.Duration(max(waitMs, 0))*time.Millisecond)
		evs, first, open := a.tail(ctx, since)
		cancel()
		resp = EventsResponse{Next: first + len(evs), Open: open}
		for i, ev := range evs {
			resp.Events = append(resp.Events, NewEventJSON(first+i, ev))
		}
	} else {
		events := a.col.Events()
		since = min(max(since, 0), len(events))
		resp = EventsResponse{Next: len(events), Open: true}
		for i, ev := range events[since:] {
			resp.Events = append(resp.Events, NewEventJSON(since+i, ev))
		}
	}
	writeJSON(w, resp)
}

// tail reads the event log from cursor on: the retained events past it, the
// id of the first of them, and whether the hub is still open. A cursor below
// the log reads from its oldest retained event, one past its end reads
// nothing. When there is nothing to read, tail waits for an emission, the
// hub's close or the end of ctx.
func (a *API) tail(ctx context.Context, cursor int) (evs []analyzer.Event, first int, open bool) {
	for {
		wake, closed := a.hub.state()
		log, lo := a.col.Snapshot().EventLog()
		cursor = min(max(cursor, lo), lo+len(log))
		if cursor < lo+len(log) || closed {
			return log[cursor-lo:], cursor, !closed
		}
		select {
		case <-ctx.Done():
			return nil, cursor, true
		case <-wake:
		}
	}
}

// followEvents streams the backlog then live events as Server-Sent Events:
// one "data:" line of EventJSON per event, id set to the cursor, and a
// final "event: end" frame when the hub closes (ingest drained). A follower
// whose cursor falls below the retained log is told with an "event: gap"
// frame naming the ids it missed, [from, to), before the stream resumes.
func (a *API) followEvents(w http.ResponseWriter, r *http.Request, cursor int) {
	if a.hub == nil {
		http.Error(w, "no live event stream on this daemon", http.StatusNotImplemented)
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	for cursor = max(cursor, 0); ; {
		evs, first, open := a.tail(r.Context(), cursor)
		if first > cursor {
			fmt.Fprintf(w, "event: gap\ndata: {\"from\":%d,\"to\":%d}\n\n", cursor, first)
		}
		for i, ev := range evs {
			b, err := json.Marshal(NewEventJSON(first+i, ev))
			if err != nil {
				return
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", first+i+1, b)
		}
		fl.Flush()
		cursor = first + len(evs)
		if !open {
			fmt.Fprint(w, "event: end\ndata: {}\n\n")
			fl.Flush()
			return
		}
		if r.Context().Err() != nil {
			return
		}
	}
}

// StageSummary condenses one lifecycle-stage histogram.
type StageSummary struct {
	Count int64 `json:"count"`
	SumNs int64 `json:"sum_ns"`
	P50Ns int64 `json:"p50_le_ns"`
	P99Ns int64 `json:"p99_le_ns"`
}

func summarize(h *telemetry.Histogram) StageSummary {
	return StageSummary{
		Count: h.Count(), SumNs: h.Sum(),
		P50Ns: h.Quantile(0.50), P99Ns: h.Quantile(0.99),
	}
}

// TraceResponse answers /api/trace/epochs: the raw lifecycle ring plus the
// collector's per-stage latency summaries, whose sums reconcile (seal→ship
// + ship→admit + admit→detect == seal→detect over fully-stamped traces).
type TraceResponse struct {
	Traces []collect.EpochTrace    `json:"traces"`
	Stages map[string]StageSummary `json:"stages"`
}

func (a *API) handleTrace(w http.ResponseWriter, r *http.Request) {
	st := a.col.Stats()
	writeJSON(w, TraceResponse{
		Traces: a.col.Traces(),
		Stages: map[string]StageSummary{
			"seal_ship":    summarize(st.SealShipNs),
			"ship_admit":   summarize(st.ShipAdmitNs),
			"admit_detect": summarize(st.AdmitDetectNs),
			"seal_detect":  summarize(st.SealDetectNs),
		},
	})
}
