package main

import (
	"bytes"
	"maps"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/report"
)

// The served window uses the collector the other way round from the stream
// loop: reads beside writes. A fresh collector is filled with the window's
// content; every round then admits more of it in a closed loop, timed
// (admit_kreports_per_s), and serves a closed-loop reader for a slice of
// time while a paced writer keeps turning the window over (query_us_p50).
//
// Labels are the epoch numbers the reports are admitted under. Label L
// carries the content of canonical epoch L mod n, and the window holds n+1
// labels: when a new label starts arriving, the previous copy of its
// content is still complete, and it is evicted only when the label after
// that starts — by which time the new copy is complete. So every answer
// equals the canonical window's at any instant, whoever admits. The timed
// admits and the paced writer take turns at one sequence of labels.

const (
	classHot uint8 = iota
	classCold
	classReplay
)

// fleet is the served window and everything measured on it.
type fleet struct {
	col      *collect.Collector
	fs       *fleetSet
	interval time.Duration // the paced writer's, between two reports
	// What the freshly filled window, with nothing admitted on top of it
	// yet, answers about every hot probe and every event: the reference the
	// reader's answers are spot-checked against.
	wantCurve [][]float64
	wantView  []*analyzer.ReplayView
	// label and j say where the admission sequence stands.
	label, j int

	fillReports int
	fillRate    []float64 // per round: reports admitted per second
	decodeNs    []int64   // per timed report: report.Decode
	admitNs     []int64   // per timed report: Collector.AddStamped
	decodeErrs  int

	// The reader's calls in order, latency and class of each, and per round
	// their median, 99th percentile and rate.
	latNs                 []int64
	class                 []uint8
	roundP50, roundP99    []float64 // µs
	roundKqps             []float64
	next                  func() uint64
	calls, checked, wrong int  // wrong: spot-checked answers that differ from the reference
	checkDue              bool // the next hot query or replay is checked
	// routed is the number of resident reports the routing index sent the
	// reader's queries to, over routedQueries QueryFlow calls (a Replay
	// counts one per flow).
	routed        int64
	routedQueries int64

	writerReports int
	writerErrs    int
	writerLateNs  []int64
}

// classLat returns the latencies of one class of reader call.
func (f *fleet) classLat(c uint8) []int64 {
	var out []int64
	for i, v := range f.latNs {
		if f.class[i] == c {
			out = append(out, v)
		}
	}
	return out
}

// admit decodes and admits one report the way Collector.AddEncoded does,
// timing the two steps apart.
func admit(col *collect.Collector, label uint64, payload []byte) (decodeNs, admitNs int64, err error) {
	t0 := time.Now()
	rep, err := report.Decode(bytes.NewReader(payload))
	t1 := time.Now()
	if err != nil {
		return int64(t1.Sub(t0)), 0, err
	}
	col.AddStamped(label, rep, report.EpochStamp{})
	return int64(t1.Sub(t0)), int64(time.Since(t1)), nil
}

// newFleet fills a fresh collector with one whole window of content,
// untimed. decodeBudget bounds
// the decoded curves each resident report keeps (0: unbounded); turnover is
// the period over which the paced writer re-admits one whole window.
func newFleet(fs *fleetSet, decodeBudget int, turnover time.Duration, seed int64) *fleet {
	n := len(fs.epochs)
	f := &fleet{
		col:      collect.New(collect.Config{WindowEpochs: n + 1, EpochNs: epochNs, GapNs: gapNs, DecodeBudget: decodeBudget}),
		fs:       fs,
		interval: turnover / time.Duration(fs.reports()),
		next:     splitmix(uint64(seed) ^ 0x5e12e),
		latNs:    make([]int64, 0, 1<<18),
		class:    make([]uint8, 0, 1<<18),
	}
	for f.label <= n {
		label, payload := f.nextReport()
		if _, _, err := admit(f.col, label, payload); err != nil {
			f.decodeErrs++
		}
		f.fillReports++
	}
	return f
}

// takeReference asks the freshly filled window about every hot probe and
// every event.
func (f *fleet) takeReference() {
	for _, pr := range f.fs.probes[:f.fs.hot] {
		f.wantCurve = append(f.wantCurve, f.col.QueryFlow(pr.key, pr.from, pr.from+queryWindows))
	}
	for _, ev := range f.fs.events {
		f.wantView = append(f.wantView, f.col.Replay(ev, replayMargin))
	}
}

// nextReport steps the admission sequence.
func (f *fleet) nextReport() (label uint64, payload []byte) {
	n := len(f.fs.epochs)
	for f.j >= len(f.fs.epochs[f.label%n]) {
		f.label, f.j = f.label+1, 0
	}
	f.j++
	return uint64(f.label), f.fs.epochs[f.label%n][f.j-1]
}

// fill admits reports in a closed loop, a label's worth at a time, until
// budget has passed, and records the round's admission rate.
func (f *fleet) fill(budget time.Duration) {
	perLabel := (f.fs.reports() + len(f.fs.epochs) - 1) / len(f.fs.epochs)
	count := 0
	start := time.Now()
	for count == 0 || time.Since(start) < budget {
		for i := 0; i < perLabel; i++ {
			label, payload := f.nextReport()
			d, a, err := admit(f.col, label, payload)
			count++
			if err != nil {
				f.decodeErrs++
				continue
			}
			f.decodeNs = append(f.decodeNs, d)
			f.admitNs = append(f.admitNs, a)
		}
	}
	f.fillRate = append(f.fillRate, float64(count)/time.Since(start).Seconds())
	f.fillReports += count
}

// serve runs the reader for d beside the paced writer and records the
// round's latencies. The reader is a closed loop: 10 % Replay, and of the
// QueryFlow calls 80 % ask about the hot set and 20 % about any flow of the
// window. The writer is an open loop admitting one window per turnover;
// how late it ran is reported.
func (f *fleet) serve(d time.Duration) {
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		start := time.Now()
		for i := 0; !stop.Load(); i++ {
			due := start.Add(time.Duration(i) * f.interval)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			if stop.Load() {
				return
			}
			f.writerLateNs = append(f.writerLateNs, int64(time.Since(due)))
			label, payload := f.nextReport()
			if _, _, err := admit(f.col, label, payload); err != nil {
				f.writerErrs++
			}
			f.writerReports++
		}
	}()

	fs := f.fs
	routed0 := f.col.Status().ReportsRouted
	first := len(f.latNs)
	start := time.Now()
	t := start
	for len(f.latNs) == first || t.Sub(start) < d {
		f.calls++
		if f.calls%spotCheck == 1 {
			f.checkDue = true
		}
		rng := f.next()
		class, i := classReplay, 0
		var curve []float64
		var view *analyzer.ReplayView
		if rng%10 == 0 {
			i = int((rng >> 8) % uint64(len(fs.events)))
			view = f.col.Replay(fs.events[i], replayMargin)
			f.routedQueries += int64(len(fs.events[i].Flows))
		} else {
			if (rng>>4)%5 != 0 {
				class, i = classHot, int((rng>>16)%uint64(fs.hot))
			} else {
				class, i = classCold, int((rng>>16)%uint64(len(fs.probes)))
			}
			pr := fs.probes[i]
			curve = f.col.QueryFlow(pr.key, pr.from, pr.from+queryWindows)
			f.routedQueries++
		}
		now := time.Now()
		f.latNs = append(f.latNs, int64(now.Sub(t)))
		f.class = append(f.class, class)
		t = now
		// The first answer and every spotCheck-th after it is checked, or
		// the next after it that has a reference.
		if f.checkDue && (class == classReplay || i < fs.hot) {
			f.checkDue = false
			f.checked++
			if class == classReplay && !viewsEqual(view, f.wantView[i]) ||
				class != classReplay && !slices.Equal(curve, f.wantCurve[i]) {
				f.wrong++
			}
			t = time.Now() // the check is not part of the next call's latency
		}
	}
	wall := t.Sub(start).Seconds()
	stop.Store(true)
	wg.Wait()
	f.routed += f.col.Status().ReportsRouted - routed0
	us := nsToUs(f.latNs[first:])
	f.roundP50 = append(f.roundP50, quantile(us, 0.5))
	f.roundP99 = append(f.roundP99, quantile(us, 0.99))
	f.roundKqps = append(f.roundKqps, float64(len(us))/wall/1e3)
}

func viewsEqual(a, b *analyzer.ReplayView) bool {
	if a == nil || b == nil || a.WindowStart != b.WindowStart || a.Windows != b.Windows || len(a.Curves) != len(b.Curves) {
		return false
	}
	return maps.EqualFunc(a.Curves, b.Curves, slices.Equal[[]float64])
}
