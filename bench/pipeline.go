package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/core"
	"umon/internal/flowkey"
	"umon/internal/metrics"
	"umon/internal/packet"
	"umon/internal/report"
	"umon/internal/uevent"
)

// pipeline is the stream loop: one goroutine replays the merged feed lap
// after lap through one StreamHostMonitor per host and one SwitchMonitor
// per switch, carries the sealed reports over an in-memory framed stream
// to the collector, and polls, admits and replays at every epoch tick.
// Closed loop, no sleeps, nothing on disk.
type pipeline struct {
	in *inputs
	// tr is set for the duration of a traced lap and nil otherwise: the
	// same loop runs both ways.
	tr *tracer

	hosts     []*core.StreamHostMonitor
	switches  []*core.SwitchMonitor
	periodEnd []int64 // per host: end of its open epoch, -1 before its first packet
	buf       bytes.Buffer
	sink      *core.StreamSink
	sr        *report.StreamReader
	frame     report.Frame
	col       *collect.Collector
	wire      []byte // mirror packets emitted and not yet ingested

	// feedNs is the timestamp the feed has reached: the clock event-time
	// lag is taken against.
	feedNs int64
	// resident holds the decoded reports of recent epochs, as admitted: the
	// reference analyzer and the served window are built from them.
	resident     map[uint64][]*report.HostReport
	nextComplete uint64 // every epoch below it has a report of each active host
	maxEpoch     uint64
	pending      []analyzer.Event // emitted, waiting for their epoch to be admitted

	// Operation counts over the whole stage.
	packets, ceRecords, mirrors, shipped, frames, admits, polls, replays, events int64
	// Failed operations: error returns and answers of the wrong shape.
	monitorErrs, shipErrs, badFrames, mirrorErrs, badReplays int64

	// Lap 0 is the untimed warm-up lap; its outputs feed the exact metrics
	// and the correctness checks.
	captureLap0  bool
	lap0Mirrors  []byte // wire bytes, packet.MirrorEncodedLen each
	lap0Events   []analyzer.Event
	lagNs        []int64   // event-time detection lag of lap-0 events
	lap0RepBytes []float64 // encoded size of every lap-0 report
}

// tracedSink times StreamSink.Ship as a child of the seal that caused it
// and accounts the shipped bytes.
type tracedSink struct{ p *pipeline }

func (s tracedSink) Ship(r core.SealedReport) error {
	p := s.p
	p.shipped++
	if r.Epoch < uint64(p.in.lapEpochs) {
		p.lap0RepBytes = append(p.lap0RepBytes, float64(len(r.Encoded)))
	}
	if p.tr != nil {
		p.tr.nested(lShip)
	}
	err := p.sink.Ship(r)
	if p.tr != nil {
		p.tr.endNested()
	}
	if err != nil {
		p.shipErrs++
	}
	return err
}

func (s tracedSink) Close() error { return nil }

func newPipeline(in *inputs) (*pipeline, error) {
	p := &pipeline{in: in, resident: make(map[uint64][]*report.HostReport)}
	var err error
	if p.sink, err = core.NewStreamSink(&p.buf); err != nil {
		return nil, err
	}
	if p.sr, err = report.NewStreamReader(&p.buf); err != nil {
		return nil, err
	}
	p.col = collect.New(collect.Config{
		WindowEpochs: windowEpochs, EpochNs: epochNs, GapNs: gapNs,
		OnEvent: p.onEvent,
	})
	hostCfg := core.StreamMonitorConfig{HostMonitorConfig: core.DefaultHostMonitor()}
	hostCfg.PeriodNs = epochNs
	for h := 0; h < in.topo.Hosts; h++ {
		m, err := core.NewStreamHostMonitor(h, hostCfg, tracedSink{p})
		if err != nil {
			return nil, err
		}
		p.hosts = append(p.hosts, m)
		p.periodEnd = append(p.periodEnd, -1)
	}
	swCfg := core.SwitchMonitorConfig{Rule: in.rule()}
	for sw := 0; sw < in.topo.Switches; sw++ {
		p.switches = append(p.switches, core.NewSwitchMonitor(int16(sw), swCfg, p.onMirror))
	}
	return p, nil
}

// onMirror is the switch monitors' emit callback: the mirror packet goes
// onto the wire, here a buffer the collector drains after the run of CE
// marks that produced it. (Ingesting inside the callback would nest the
// collector's work in the switch's, and a traced lap would have to read
// the clock twice per mirror to tell them apart.)
func (p *pipeline) onMirror(encoded []byte) {
	p.mirrors++
	p.wire = append(p.wire, encoded...)
}

// drainMirrors hands the collector every mirror packet on the wire.
func (p *pipeline) drainMirrors() {
	if p.captureLap0 {
		p.lap0Mirrors = append(p.lap0Mirrors, p.wire...)
	}
	for off := 0; off < len(p.wire); off += packet.MirrorEncodedLen {
		if p.tr != nil {
			p.tr.hit(lMirror)
		}
		if err := p.col.AddMirrorPacket(p.wire[off : off+packet.MirrorEncodedLen]); err != nil {
			p.mirrorErrs++
		}
	}
	p.wire = p.wire[:0]
}

// onEvent receives each event as the collector closes it.
func (p *pipeline) onEvent(ev analyzer.Event) {
	p.events++
	p.pending = append(p.pending, ev)
	if ev.EndNs <= p.in.lapSpan()-gapNs {
		// Fully inside lap 0: it cannot have merged with lap-1 mirrors.
		p.lap0Events = append(p.lap0Events, ev)
		p.lagNs = append(p.lagNs, p.feedNs-ev.EndNs)
	}
}

// lap replays the feed once, shifted by i lap spans.
func (p *pipeline) lap(i int) {
	shift := int64(i) * p.in.lapSpan()
	nextTick := shift + epochNs
	tr := p.tr
	feed := p.in.feed
	for k := range feed {
		it := &feed[k]
		ns := it.ns + shift
		if ns >= nextTick {
			p.drainMirrors()
			for ns >= nextTick {
				p.tick(nextTick)
				nextTick += epochNs
			}
		}
		p.feedNs = ns
		if it.port >= 0 {
			if tr != nil {
				tr.hit(lSwitch)
			}
			p.switches[it.node].OnCEPacket(it.port, ns, it.flow, it.psn, it.size)
			continue
		}
		if len(p.wire) > 0 {
			p.drainMirrors()
		}
		h := it.node
		var err error
		if end := p.periodEnd[h]; ns < end {
			if tr != nil {
				tr.hit(lUpdate)
			}
			err = p.hosts[h].OnPacket(it.flow, ns, int(it.size))
		} else {
			// The packet crosses an epoch boundary: the monitor seals,
			// encodes and ships the open epoch before taking it.
			p.periodEnd[h] = ns - ns%epochNs + epochNs
			if tr != nil && end >= 0 {
				tr.begin(lSeal)
				err = p.hosts[h].OnPacket(it.flow, ns, int(it.size))
				tr.end()
			} else {
				err = p.hosts[h].OnPacket(it.flow, ns, int(it.size))
			}
		}
		if err != nil {
			p.monitorErrs++
		}
	}
	p.drainMirrors()
	p.packets += int64(p.in.packets)
	p.ceRecords += int64(p.in.ceMarks)
	for end := shift + p.in.lapSpan(); nextTick <= end; nextTick += epochNs {
		p.tick(nextTick)
	}
}

// tick is the collector's side of an epoch boundary: read and admit the
// frames shipped since the last tick (the calls IngestStream makes), run a
// detection pass, and replay the events whose epoch is now admitted.
func (p *pipeline) tick(now int64) {
	p.feedNs = now
	tr := p.tr
	for {
		if tr != nil {
			tr.begin(lFrameRead)
		}
		err := p.sr.Next(&p.frame)
		if tr != nil {
			tr.end()
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			p.badFrames++
			if errors.Is(err, report.ErrCRC) {
				continue // length-delimited: the reader is past the frame
			}
			break
		}
		fr := &p.frame
		if fr.Type == report.FrameStamp {
			st, err := fr.Stamp()
			if err != nil {
				p.badFrames++
				continue
			}
			if tr != nil {
				tr.begin(lAdmit)
			}
			p.col.Stamp(fr.Host, fr.Epoch, st)
			if tr != nil {
				tr.end()
			}
			continue
		}
		p.frames++
		if tr != nil {
			tr.begin(lDecode)
		}
		rep, err := report.Decode(bytes.NewReader(fr.Payload))
		if tr != nil {
			tr.end()
		}
		if err != nil {
			p.badFrames++
			continue
		}
		if tr != nil {
			tr.begin(lAdmit)
		}
		p.col.AddStamped(fr.Epoch, rep, report.EpochStamp{})
		if tr != nil {
			tr.end()
		}
		p.admits++
		p.resident[fr.Epoch] = append(p.resident[fr.Epoch], rep)
		if fr.Epoch > p.maxEpoch {
			p.maxEpoch = fr.Epoch
		}
	}

	if tr != nil {
		tr.begin(lPoll)
	}
	p.col.Poll()
	if tr != nil {
		tr.end()
	}
	p.polls++

	for len(p.resident[p.nextComplete]) >= p.in.activeHosts {
		p.nextComplete++
	}
	keep := p.pending[:0]
	for _, ev := range p.pending {
		if uint64(ev.EndNs/epochNs) >= p.nextComplete {
			keep = append(keep, ev)
			continue
		}
		p.replay(ev)
	}
	p.pending = keep
	// Forget decoded reports the collector has long evicted.
	for e := range p.resident {
		if e+2*windowEpochs < p.maxEpoch && e < p.nextComplete {
			delete(p.resident, e)
		}
	}
}

func (p *pipeline) replay(ev analyzer.Event) {
	if p.tr != nil {
		p.tr.begin(lReplay)
	}
	view := p.col.Replay(ev, replayMargin)
	if p.tr != nil {
		p.tr.end()
	}
	p.replays++
	if view == nil || len(view.Curves) != len(ev.Flows) {
		p.badReplays++
	}
}

// finish flushes every monitor's open epoch, ends the framed stream, runs
// the last tick and closes every event still open.
func (p *pipeline) finish() error {
	for _, m := range p.hosts {
		if err := m.Close(); err != nil {
			p.monitorErrs++
		}
	}
	if err := p.sink.Close(); err != nil {
		return fmt.Errorf("closing report stream: %w", err)
	}
	p.tick(p.feedNs)
	p.col.Drain()
	for _, ev := range p.pending {
		p.replay(ev)
	}
	p.pending = nil
	return nil
}

// lapTimes are the wall times of the timed laps of a run and what the
// runtime did during them.
type lapTimes struct {
	untraced, traced []float64 // seconds, in run order
	// roundMpps is each round's throughput over its untraced laps.
	roundMpps []float64
	// Deltas of runtime.MemStats summed over the rounds' lap blocks.
	allocBytes, mallocs, pauseNs uint64
	gcCycles                     uint32
	lastLap                      int
}

// warmUp runs the untimed laps: lap 0, whose outputs feed the exact
// metrics and the checks, and as many more as fill the collector window.
func (p *pipeline) warmUp() *lapTimes {
	lt := &lapTimes{}
	p.captureLap0 = true
	p.lap(0)
	p.captureLap0 = false
	for (lt.lastLap+1)*p.in.lapEpochs < windowEpochs {
		lt.lastLap++
		p.lap(lt.lastLap)
	}
	return lt
}

// lapBlock is one round's share of the stream loop: timed laps until
// budget has passed, at least one. With a tracer every second lap is
// traced (and each kind runs at least once), so that both kinds see the
// same process state.
func (p *pipeline) lapBlock(lt *lapTimes, budget time.Duration, tr *tracer) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var plainS float64
	var plain, traced int
	start := time.Now()
	for plain == 0 || (tr != nil && traced == 0) || time.Since(start) < budget {
		lt.lastLap++
		trace := tr != nil && lt.lastLap%2 == 0
		if trace {
			p.tr = tr
			tr.begin(lDriver)
			tr.spans[len(tr.spans)-1].Name = "lap"
		}
		t0 := time.Now()
		p.lap(lt.lastLap)
		d := time.Since(t0).Seconds()
		if trace {
			tr.end()
			p.tr = nil
			lt.traced = append(lt.traced, d)
			traced++
		} else {
			lt.untraced = append(lt.untraced, d)
			plainS += d
			plain++
		}
	}
	runtime.ReadMemStats(&m1)
	lt.roundMpps = append(lt.roundMpps, float64(plain)*float64(p.in.packets)/plainS/1e6)
	lt.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	lt.mallocs += m1.Mallocs - m0.Mallocs
	lt.pauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	lt.gcCycles += m1.NumGC - m0.NumGC
}

// --- what the pipeline's outputs are checked against ---

func sortEvents(evs []analyzer.Event) {
	sort.Slice(evs, func(i, j int) bool {
		a, b := &evs[i], &evs[j]
		if a.StartNs != b.StartNs {
			return a.StartNs < b.StartNs
		}
		if a.Port.Switch != b.Port.Switch {
			return a.Port.Switch < b.Port.Switch
		}
		return a.Port.Port < b.Port.Port
	})
}

// batchEvents runs the batch analyzer over the lap-0 mirrors and returns
// the events that lie fully inside lap 0, with the detection wall time.
func (p *pipeline) batchEvents() ([]analyzer.Event, float64, error) {
	a := analyzer.New()
	start := time.Now()
	for off := 0; off < len(p.lap0Mirrors); off += packet.MirrorEncodedLen {
		if err := a.AddMirrorPacket(p.lap0Mirrors[off : off+packet.MirrorEncodedLen]); err != nil {
			return nil, 0, err
		}
	}
	all := a.DetectEvents(gapNs)
	wall := time.Since(start).Seconds()
	var evs []analyzer.Event
	for _, ev := range all {
		if ev.EndNs <= p.in.lapSpan()-gapNs {
			evs = append(evs, ev)
		}
	}
	return evs, wall, nil
}

// eventsEqual compares two event lists; two empty lists are equal whether
// nil or not.
func eventsEqual(a, b []analyzer.Event) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// accuracy grades the collector's answers for every flow of the last lap
// that carried at least minFlowBytes against the ground truth, and checks
// each answer bit for bit against a batch analyzer holding the same
// resident reports.
type accuracy struct {
	cosine, are float64
	flows       int
	mismatches  int
	queries     int
}

func (p *pipeline) accuracy(lastLap int) accuracy {
	ref := analyzer.New()
	for _, e := range p.col.Status().Epochs {
		for _, rep := range p.resident[e] {
			ref.AddReport(rep)
		}
	}
	shiftW := int64(lastLap) * p.in.lapSpan() >> 13
	var acc accuracy
	var cos, are []float64
	for _, f := range p.in.truth.SortedFlows() {
		ts := p.in.truth.Flow(f)
		if ts.Total() < minFlowBytes {
			continue
		}
		from, to := ts.Start+shiftW, ts.End()+shiftW
		est := p.col.QueryFlow(f, from, to)
		want := ref.QueryFlow(f, from, to)
		acc.queries++
		if !slices.Equal(est, want) {
			acc.mismatches++
		}
		truth := make([]float64, len(ts.Counts))
		for i, v := range ts.Counts {
			truth[i] = analyzer.RateGbps(float64(v))
		}
		for i := range est {
			est[i] = analyzer.RateGbps(est[i])
		}
		cos = append(cos, metrics.Cosine(truth, est))
		are = append(are, metrics.ARE(truth, est))
	}
	acc.flows = len(cos)
	acc.cosine = metrics.Mean(cos)
	acc.are = metrics.MeanFinite(are)
	return acc
}

// eventRecall is the Figure 14 grading at the workload's sampling rule:
// the share of ground-truth congestion episodes above 200 KB of queue that
// at least one mirrored packet falls into.
func eventRecall(in *inputs) (recall float64, mirrors int) {
	ms := uevent.Capture(in.trace.CELog, in.rule(), 0)
	bins := uevent.Grade(in.trace.Episodes, ms, 25<<10, 250<<10, 10_000)
	return uevent.RecallAbove(bins, 200<<10), len(ms)
}

// windowContent turns the collector's window after lap lastLap into the
// content that is served: the resident reports re-encoded in admission
// order, that lap's flows as probes, and its events shifted into the
// window.
func (p *pipeline) windowContent(lastLap int) (*fleetSet, error) {
	fs := &fleetSet{}
	var buf bytes.Buffer
	for _, e := range p.col.Status().Epochs {
		var epoch [][]byte
		for _, rep := range p.resident[e] {
			buf.Reset()
			if _, err := rep.Encode(&buf); err != nil {
				return nil, err
			}
			epoch = append(epoch, append([]byte(nil), buf.Bytes()...))
		}
		fs.epochs = append(fs.epochs, epoch)
	}
	shift := int64(lastLap) * p.in.lapSpan()
	flows := p.in.truth.SortedFlows()
	// A seeded shuffle: the seed chooses the hot set.
	next := splitmix(uint64(p.in.seed) ^ 0x9b0be5)
	for i := len(flows) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		flows[i], flows[j] = flows[j], flows[i]
	}
	for _, f := range flows {
		fs.probes = append(fs.probes, probe{key: f, from: p.in.truth.Flow(f).Start + shift>>13})
	}
	// An eighth of the flows is hot: few enough to stay decoded, enough
	// that no seed draws a hot set of its own cost.
	fs.hot = min(max(64, len(flows)/8), len(flows))
	for _, ev := range p.lap0Events {
		if len(fs.events) == 16 {
			break
		}
		ev.StartNs += shift
		ev.EndNs += shift
		fs.events = append(fs.events, ev)
	}
	if len(fs.events) == 0 && len(fs.probes) > 0 {
		// A trace without congestion still replays something: the first
		// probes over their opening windows.
		ev := analyzer.Event{StartNs: fs.probes[0].from << 13, Packets: 8}
		ev.EndNs = ev.StartNs + 20<<13
		seen := map[flowkey.Key]bool{}
		for _, pr := range fs.probes {
			if len(ev.Flows) == 8 {
				break
			}
			if !seen[pr.key] {
				seen[pr.key] = true
				ev.Flows = append(ev.Flows, pr.key)
			}
		}
		fs.events = []analyzer.Event{ev}
	}
	return fs, nil
}
