package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/opsapi"
	"umon/internal/packet"
	"umon/internal/pcapio"
)

// runOptions are the arguments of one run.
type runOptions struct {
	seed    int64
	seconds float64
	trace   bool
}

// result is one run of one workload.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples states how many samples stand behind the timing metrics.
	Samples map[string]int `json:"samples"`
	Checks  []check        `json:"checks"`
	Ledger  *ledger        `json:"ledger,omitempty"`
	// LapS is the wall time of every untraced timed lap, in run order.
	LapS []float64 `json:"lap_s"`
	// RoundSamples holds what each wall-clock metric was taken from: one
	// value per round, simulation or set-up, in run order.
	RoundSamples map[string][]float64 `json:"round_samples"`
	WallS        float64              `json:"wall_s"`
	spans        []span
}

// check is one correctness gate of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// check records one gate; a gate that fails counts as a failed operation.
func (r *result) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		r.Failed++
	}
	r.Checks = append(r.Checks, c)
}

// run carries one run from stage to stage.
type run struct {
	spec *workloadSpec
	opt  runOptions
	res  *result
	m    metricSet

	in                      *inputs
	setupS, simS, generateS []float64 // wall times: set-ups, serial simulations, flow generations
	p                       *pipeline
	tr                      *tracer
	laps                    *lapTimes
	batch                   []analyzer.Event // batch detection over lap 0's mirrors
	detectS                 float64
	acc                     accuracy
	recall                  float64 // event_recall
	fl                      *fleet
	residentBytes           uint64
	pipeSt, fleetSt         collect.Status
	lateReports             int64
	lateMirrors             int64
	fleetAdmits             int64
	fleetLate               int64
}

// runWorkload sets the workload up, runs its measured rounds and checks
// its outputs. With trace it reports the per-layer metrics, otherwise the
// end-to-end ones.
func runWorkload(spec *workloadSpec, opt runOptions) (*result, error) {
	began := time.Now()
	r := &run{
		spec: spec, opt: opt, m: metricSet{},
		res: &result{Workload: spec.Name, Seed: opt.seed, Trace: opt.trace, Samples: map[string]int{}},
	}
	for _, stage := range []func() error{r.setUp, r.streamRounds, r.checkPipeline, r.fleetRounds, r.checkFleet} {
		if err := stage(); err != nil {
			return nil, err
		}
	}
	res, p, fl := r.res, r.p, r.fl
	res.Attempted = p.packets + p.ceRecords + p.mirrors + p.shipped + p.frames + p.admits + p.replays +
		r.fleetAdmits + int64(len(fl.latNs)) + int64(r.acc.queries)
	res.Failed += p.monitorErrs + p.shipErrs + p.badFrames + p.mirrorErrs + p.badReplays + r.lateReports + r.lateMirrors +
		int64(fl.decodeErrs+fl.writerErrs) + r.fleetLate + int64(fl.wrong) + int64(r.acc.mismatches)

	r.endToEnd()
	defs := endToEnd
	if opt.trace {
		defs = perLayer
		if err := r.perLayer(); err != nil {
			return nil, err
		}
	}
	var missing []string
	res.Metrics, missing = r.m.render(defs)
	res.check("metrics.complete", len(missing) == 0, "no value for %v", missing)
	res.Correct = res.Failed == 0
	res.WallS = time.Since(began).Seconds()
	return res, nil
}

// setUp sets the workload up setupReps times over, each time from an
// empty heap. Every set-up of one seed must give the same trace.
func (r *run) setUp() error {
	digests := map[uint64]bool{}
	for rep := 0; rep < setupReps; rep++ {
		r.in = nil
		runtime.GC()
		start := time.Now()
		in, err := setUp(r.spec, r.opt.seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		r.simS = append(r.simS, in.simS)
		r.generateS = append(r.generateS, in.generateS)
		in.digest = traceDigest(in.trace)
		digests[in.digest] = true
		r.in = in
	}
	r.res.check("sim.repeatable", len(digests) == 1, "%d set-ups of one seed gave %d different traces", setupReps, len(digests))
	return nil
}

// stage is one kind of measured work: run does whole units of it (a
// simulation, a lap, a label of admits, a reader call) until budget has
// passed, at least one.
type stage struct {
	share float64 // of --seconds
	run   func(budget time.Duration) error
}

// rounds cuts the stages' seconds into rounds and gives every stage its
// share of each, so that a disturbance of the machine falls into some
// samples of every metric, not into all samples of one. What a stage
// overran is taken out of its next rounds: a stage whose unit is longer
// than its share sits some rounds out, and the run keeps to its length.
func (r *run) rounds(stages ...stage) error {
	n := max(minRounds, int(math.Round(r.opt.seconds/roundS)))
	r.res.Samples["rounds"] = n
	credit := make([]time.Duration, len(stages))
	for k := 0; k < n; k++ {
		for i, st := range stages {
			credit[i] += time.Duration(st.share * r.opt.seconds / float64(n) * float64(time.Second))
			// Every stage runs in the first round, whatever its share.
			if credit[i] <= 0 && k > 0 {
				continue
			}
			start := time.Now()
			if err := st.run(credit[i]); err != nil {
				return err
			}
			credit[i] -= time.Since(start)
		}
	}
	return nil
}

// simulations runs the serial simulator again until budget has passed.
func (r *run) simulations(budget time.Duration) error {
	for start := time.Now(); ; {
		tr, s, err := simulate(r.in, 1)
		if err != nil {
			return err
		}
		r.simS = append(r.simS, s)
		r.res.check("sim.repeatable", traceDigest(tr) == r.in.digest, "a repeated simulation gave a different trace")
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// streamRounds measures the simulator and the stream loop, round by round,
// before the served window exists: its heap would make every collection
// cycle of their garbage longer.
func (r *run) streamRounds() error {
	if r.opt.trace {
		// The two-shard point of the simulator.
		tr, s, err := simulate(r.in, 2)
		if err != nil {
			return err
		}
		r.m["netsim.shards2_speedup"] = median(r.simS) / s
		r.res.check("sim.shards", traceDigest(tr) == r.in.digest, "the 2-shard trace differs from the serial one")
	}
	p, err := newPipeline(r.in)
	if err != nil {
		return err
	}
	r.p = p
	if r.opt.trace {
		r.tr = newTracer()
	}
	r.laps = p.warmUp()
	runtime.GC() // every run starts its rounds from the same collector state
	return r.rounds(
		stage{r.spec.SimShare, r.simulations},
		stage{r.spec.PipelineShare, func(budget time.Duration) error {
			p.lapBlock(r.laps, budget, r.tr)
			return nil
		}},
	)
}

// fleetRounds fills the served window, measures what stays resident, and
// measures admits into it and reads from it, round by round.
func (r *run) fleetRounds() error {
	fs, budget := r.in.fleet, 0
	if fs == nil {
		var err error
		if fs, err = r.p.windowContent(r.laps.lastLap); err != nil {
			return err
		}
	} else {
		budget = r.spec.Fleet.DecodeBudget
	}
	if fs.reports() == 0 || len(fs.probes) == 0 {
		return fmt.Errorf("there is no window to serve")
	}
	fl := newFleet(fs, budget, time.Duration(r.spec.TurnoverS*float64(time.Second)), r.opt.seed)
	r.fl = fl
	// resident_mb: what stays on the heap with both windows, the feed and
	// the trace referenced. Taken before the rounds, whose decode caches
	// grow with however many queries they get through.
	var ms runtime.MemStats
	runtime.GC() // and every run starts these rounds from the same collector state
	runtime.ReadMemStats(&ms)
	r.residentBytes = ms.HeapAlloc
	fl.takeReference()
	return r.rounds(
		stage{r.spec.FillShare, func(budget time.Duration) error { fl.fill(budget); return nil }},
		stage{r.spec.ServeShare, func(budget time.Duration) error { fl.serve(budget); return nil }},
	)
}

// checkPipeline ends the stream loop and checks everything it put out.
func (r *run) checkPipeline() error {
	res, p := r.res, r.p
	if err := p.finish(); err != nil {
		return err
	}
	res.LapS = r.laps.untraced
	res.Samples["laps_untraced"] = len(r.laps.untraced)
	res.Samples["laps_traced"] = len(r.laps.traced)
	res.Samples["packets_per_lap"] = r.in.packets

	var shipped int64
	for _, hm := range p.hosts {
		_, n := hm.Stats()
		shipped += int64(n)
	}
	r.pipeSt = p.col.Status()
	r.lateReports = p.admits - r.pipeSt.ReportsIngested
	r.lateMirrors = p.mirrors - p.mirrorErrs - r.pipeSt.MirrorsIngested
	res.check("pipeline.errors", p.monitorErrs+p.shipErrs+p.mirrorErrs+p.badReplays == 0,
		"monitor %d, ship %d, mirror %d, replay %d", p.monitorErrs, p.shipErrs, p.mirrorErrs, p.badReplays)
	res.check("pipeline.frames", p.frames == shipped && p.shipped == shipped && p.badFrames == 0 && p.sr.CRCErrors() == 0,
		"shipped %d, framed %d, read %d, bad %d, crc %d", shipped, p.shipped, p.frames, p.badFrames, p.sr.CRCErrors())
	res.check("pipeline.late", r.lateReports == 0 && r.lateMirrors == 0, "late reports %d, late mirrors %d", r.lateReports, r.lateMirrors)

	var wantMirrors int
	r.recall, wantMirrors = eventRecall(r.in)
	res.check("pipeline.mirrors", len(p.lap0Mirrors) == wantMirrors*packet.MirrorEncodedLen,
		"lap 0 emitted %d mirrors, the sampling rule selects %d", len(p.lap0Mirrors)/packet.MirrorEncodedLen, wantMirrors)
	var err error
	if r.batch, r.detectS, err = p.batchEvents(); err != nil {
		return fmt.Errorf("batch detection: %w", err)
	}
	sortEvents(p.lap0Events)
	res.check("pipeline.events", eventsEqual(p.lap0Events, r.batch), "online detection found %d lap-0 events, batch detection %d, or they differ", len(p.lap0Events), len(r.batch))
	r.acc = p.accuracy(r.laps.lastLap)
	res.check("pipeline.answers", r.acc.mismatches == 0 && r.acc.flows > 0, "%d of %d collector answers differ from the batch analyzer's", r.acc.mismatches, r.acc.queries)
	res.check("pipeline.cosine", r.acc.cosine >= 0.98, "curve_cosine %.4f is below 0.98", r.acc.cosine)
	res.Samples["graded_flows"] = r.acc.flows
	res.Samples["lap0_events"] = len(p.lap0Events)
	return nil
}

// checkFleet checks what was admitted into and read from the served window.
func (r *run) checkFleet() error {
	res, fl := r.res, r.fl
	r.fleetSt = fl.col.Status()
	r.fleetAdmits = int64(fl.fillReports + fl.writerReports)
	r.fleetLate = r.fleetAdmits - int64(fl.decodeErrs+fl.writerErrs) - r.fleetSt.ReportsIngested
	res.check("fleet.errors", fl.decodeErrs+fl.writerErrs == 0 && r.fleetLate == 0, "decode errors %d, late reports %d", fl.decodeErrs+fl.writerErrs, r.fleetLate)
	res.check("fleet.answers", fl.wrong == 0 && fl.checked > 0, "%d of %d spot-checked answers differ from the reference window", fl.wrong, fl.checked)
	res.Samples["queries"] = len(fl.latNs)
	res.Samples["spot_checks"] = fl.checked
	res.Samples["fill_reports"] = fl.fillReports
	return nil
}

// timedPackets is the number of host packets the timed laps replayed.
func (r *run) timedPackets() float64 {
	return float64(len(r.laps.untraced)+len(r.laps.traced)) * float64(r.in.packets)
}

// endToEnd computes the metrics an operator sees. A wall-clock metric is
// the quartile on the fast side of its samples over the run (rounds,
// simulations, set-ups): see fastQuartile.
func (r *run) endToEnd() {
	m, in, laps, fl := r.m, r.in, r.laps, r.fl
	m["setup_s"] = fastQuartile(r.setupS, false)
	m["pipeline_mpps"] = fastQuartile(laps.roundMpps, true)
	m["alloc_bytes_per_pkt"] = float64(laps.allocBytes) / r.timedPackets()
	m["resident_mb"] = float64(r.residentBytes) / (1 << 20)
	var lap0Bytes float64
	for _, b := range r.p.lap0RepBytes {
		lap0Bytes += b
	}
	m["report_mbps_per_host"] = lap0Bytes * 8 / (float64(in.lapSpan()) / 1e9) / float64(in.topo.Hosts) / 1e6
	m["curve_cosine"] = r.acc.cosine
	m["event_recall"] = r.recall
	m["admit_kreports_per_s"] = fastQuartile(fl.fillRate, true) / 1e3
	m["query_us_p50"] = fastQuartile(fl.roundP50, false)
	m["sim_mevents_per_s"] = float64(in.trace.Events) / fastQuartile(r.simS, false) / 1e6
	r.res.RoundSamples = map[string][]float64{
		"setup_s": r.setupS, "sim_s": r.simS, "pipeline_mpps": laps.roundMpps,
		"admit_reports_per_s": fl.fillRate, "query_us_p50": fl.roundP50,
	}
}

// perLayer computes the single-layer metrics of a traced run from the
// ledger, the fleet rounds' samples and the side phases.
func (r *run) perLayer() error {
	m, in, p, laps, fl, res := r.m, r.in, r.p, r.laps, r.fl, r.res
	lg, err := r.tr.ledger()
	if err != nil {
		return err
	}
	res.Ledger = lg
	res.spans = r.tr.spans
	var tracedWall float64
	for _, s := range laps.traced {
		tracedWall += s
	}
	covered := 1 - lg.share(lDriver)
	res.check("trace.reconciles", math.Abs(lg.WallS-tracedWall) <= 0.01*tracedWall,
		"spans cover %.4f s of %.4f s of traced laps", lg.WallS, tracedWall)
	res.check("trace.coverage", covered >= 0.85, "named layers cover %.1f %% of the traced wall, want 85 %%", 100*covered)
	if err := sidePhases(p, fl, m); err != nil {
		return err
	}

	us := func(l layer) []float64 { return nsToUs(lg.self[l]) }
	perCall := func(l layer) float64 { return ratio(float64(lg.total[l]), float64(lg.calls(l))) }
	pst, fst := r.pipeSt, r.fleetSt

	m["netsim.run_s"] = fastQuartile(r.simS, false)
	m["netsim.events"] = float64(in.trace.Events)
	m["netsim.packets"] = float64(in.packets)
	m["netsim.ce_marks"] = float64(in.ceMarks)
	m["netsim.mevents_per_s"] = m["sim_mevents_per_s"]
	m["workload.generate_s"] = median(r.generateS)
	m["workload.flows"] = float64(len(in.flows))
	m["wavesketch.update_ns_per_pkt"] = perCall(lUpdate)
	m["wavesketch.updates"] = float64(lg.calls(lUpdate))
	m["wavesketch.busy_share"] = lg.share(lUpdate)
	m["wavesketch.curve_are"] = r.acc.are
	m["core.seal_us_p50"] = quantile(us(lSeal), 0.5)
	m["core.seal_us_p99"] = quantile(us(lSeal), 0.99)
	m["core.seals"] = float64(lg.calls(lShip))
	m["core.seal_busy_share"] = lg.share(lSeal)
	m["core.ship_us_p50"] = quantile(us(lShip), 0.5)
	m["core.ship_errors"] = float64(p.shipErrs)
	m["core.switch_ns_per_ce"] = perCall(lSwitch)
	m["core.mirrors_emitted"] = float64(p.mirrors)
	m["report.bytes_per_report_p50"] = quantile(p.lap0RepBytes, 0.5)
	m["report.bytes_per_report_p99"] = quantile(p.lap0RepBytes, 0.99)
	m["report.frame_read_us_p50"] = quantile(us(lFrameRead), 0.5)
	// Decode, admit and replay samples pool the traced laps with the fleet
	// rounds, which time the same calls.
	decodeUs := append(nsToUs(fl.decodeNs), us(lDecode)...)
	m["report.decode_us_p50"] = quantile(decodeUs, 0.5)
	m["report.decode_us_p99"] = quantile(decodeUs, 0.99)
	m["report.bad_frames"] = float64(p.badFrames)
	m["report.crc_errors"] = float64(p.sr.CRCErrors())
	admitUs := append(nsToUs(fl.admitNs), us(lAdmit)...)
	m["collect.admit_us_p50"] = quantile(admitUs, 0.5)
	m["collect.admit_us_p99"] = quantile(admitUs, 0.99)
	m["collect.admits"] = float64(p.admits + r.fleetAdmits)
	m["collect.evictions"] = float64(pst.ReportsIngested-int64(pst.ResidentReports)) + float64(fst.ReportsIngested-int64(fst.ResidentReports))
	m["collect.late_reports"] = float64(r.lateReports + r.fleetLate)
	m["collect.mirror_ns_per_mirror"] = perCall(lMirror)
	m["collect.mirrors"] = float64(pst.MirrorsIngested)
	m["collect.late_mirrors"] = float64(r.lateMirrors)
	lagUs := nsToUs(p.lagNs)
	m["collect.detect_lag_us_p50"] = quantile(lagUs, 0.5)
	m["collect.detect_lag_us_p99"] = quantile(lagUs, 0.99)
	m["collect.poll_us_p50"] = quantile(us(lPoll), 0.5)
	m["collect.poll_us_p99"] = quantile(us(lPoll), 0.99)
	m["collect.polls"] = float64(p.polls)
	m["collect.events_emitted"] = float64(p.events)
	replayUs := append(nsToUs(fl.classLat(classReplay)), us(lReplay)...)
	m["collect.replay_us_p50"] = quantile(replayUs, 0.5)
	m["collect.replay_us_p99"] = quantile(replayUs, 0.99)
	m["collect.replays"] = float64(len(replayUs))
	m["collect.query_us_p99"] = fastQuartile(fl.roundP99, false)
	m["collect.query_kqps"] = fastQuartile(fl.roundKqps, true)
	m["collect.query_us_hot_p50"] = quantile(nsToUs(fl.classLat(classHot)), 0.5)
	m["collect.query_us_cold_p50"] = quantile(nsToUs(fl.classLat(classCold)), 0.5)
	m["collect.route_visited_per_query"] = ratio(float64(fl.routed), float64(fl.routedQueries))
	m["collect.writer_late_ms_p99"] = quantile(nsToUs(fl.writerLateNs), 0.99) / 1e3
	m["analyzer.detect_ms"] = r.detectS * 1e3
	m["analyzer.events"] = float64(len(r.batch))
	m["runtime.allocs_per_kpkt"] = float64(laps.mallocs) / r.timedPackets() * 1e3
	m["runtime.gc_cycles"] = float64(laps.gcCycles)
	m["runtime.gc_pause_ms"] = float64(laps.pauseNs) / 1e6
	m["runtime.gomaxprocs"] = float64(runtime.GOMAXPROCS(0))
	m["driver.self_share"] = lg.share(lDriver)
	m["trace.overhead_share"] = median(laps.traced)/median(laps.untraced) - 1
	return nil
}

// sidePhases times two paths the daemon really uses and the stream loop
// does not: mirrors arriving as a pcap file, and the HTTP API in front of
// the query plane. No socket and no file: a pcap image in memory and
// httptest recorders.
func sidePhases(p *pipeline, fl *fleet, m metricSet) error {
	fs := fl.fs
	var file bytes.Buffer
	w := pcapio.NewWriter(&file, 0)
	mirrors := len(p.lap0Mirrors) / packet.MirrorEncodedLen
	for i := 0; i < mirrors; i++ {
		wire := p.lap0Mirrors[i*packet.MirrorEncodedLen : (i+1)*packet.MirrorEncodedLen]
		var mir packet.Mirrored
		if err := packet.DecodeMirrorInto(wire, &mir); err != nil {
			return fmt.Errorf("pcap side phase: %w", err)
		}
		if err := w.WritePacket(pcapio.Packet{TimestampNs: mir.TimestampNs, Data: wire, OrigLen: len(wire)}); err != nil {
			return fmt.Errorf("pcap side phase: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("pcap side phase: %w", err)
	}
	scratch := collect.New(collect.Config{EpochNs: epochNs, GapNs: gapNs})
	start := time.Now()
	ingested, bad, err := scratch.IngestMirrorPcap(bytes.NewReader(file.Bytes()), nil)
	wall := time.Since(start)
	if err != nil || bad != 0 || ingested != mirrors {
		return fmt.Errorf("pcap side phase: ingested %d of %d mirrors, %d bad: %v", ingested, mirrors, bad, err)
	}
	m["pcapio.ingest_ns_per_mirror"] = ratio(float64(wall), float64(mirrors))

	// get times one request through a handler and returns microseconds.
	get := func(mux *http.ServeMux, target string) (float64, error) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, target, nil)
		start := time.Now()
		mux.ServeHTTP(rec, req)
		us := float64(time.Since(start)) / 1e3
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("GET %s: status %d", target, rec.Code)
		}
		return us, nil
	}
	// The served window answers flow queries and status; the pipeline's
	// collector holds the events a replay request names.
	fleetMux, streamMux := http.NewServeMux(), http.NewServeMux()
	opsapi.New(opsapi.Config{Collector: fl.col}).Mount(fleetMux)
	opsapi.New(opsapi.Config{Collector: p.col}).Mount(streamMux)
	var queryUs, replayUs, statusUs []float64
	for i := 0; i < 200; i++ {
		pr := fs.probes[i%fs.hot]
		us, err := get(fleetMux, "/api/query/flow?flow="+url.QueryEscape(pr.key.String())+
			"&from="+strconv.FormatInt(pr.from, 10)+"&to="+strconv.FormatInt(pr.from+queryWindows, 10))
		if err != nil {
			return err
		}
		queryUs = append(queryUs, us)
	}
	events := len(p.col.Events())
	for i := 0; i < 50 && events > 0; i++ {
		us, err := get(streamMux, "/api/replay?event="+strconv.Itoa(i%events)+"&margin-us=30")
		if err != nil {
			return err
		}
		replayUs = append(replayUs, us)
	}
	for i := 0; i < 50; i++ {
		us, err := get(fleetMux, "/api/status")
		if err != nil {
			return err
		}
		statusUs = append(statusUs, us)
	}
	m["opsapi.query_flow_us_p50"] = median(queryUs)
	m["opsapi.replay_us_p50"] = median(replayUs)
	m["opsapi.status_us_p50"] = median(statusUs)
	return nil
}
