package collect

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"umon/internal/report"
	"umon/internal/telemetry"
)

// fakeClock is a deterministic wall clock for lifecycle-stamp tests: each
// reading advances by step.
type fakeClock struct {
	now  int64
	step int64
}

func (fc *fakeClock) Now() int64 {
	fc.now += fc.step
	return fc.now
}

// TestTraceStageHistogramsReconcile drives stamped reports and mirrors
// through a collector under a fake clock and pins the lifecycle
// decomposition: every trace carries monotone seal ≤ ship ≤ admit ≤ detect
// stamps, the per-trace stage latencies telescope to the end-to-end value,
// and — because every trace here is fully stamped and detected — the stage
// histograms reconcile exactly: Sum(seal→ship) + Sum(ship→admit) +
// Sum(admit→detect) == Sum(seal→detect), with equal counts.
func TestTraceStageHistogramsReconcile(t *testing.T) {
	fc := &fakeClock{now: 1_000_000, step: 1_000}
	reg := telemetry.NewRegistry()
	st := NewStats(reg)
	c := New(Config{GapNs: 50_000, Stats: st, Now: fc.Now})

	// Three stamped reports for epoch 0 (span [0, 20ms) at the default
	// EpochNs) from distinct hosts. Seal/ship stamps are synthetic wall
	// times strictly before the fake clock's admit stamps.
	const hosts = 3
	for h := 0; h < hosts; h++ {
		seal := int64(100_000 + h*10_000)
		c.AddStamped(0, mkReport(h, key(h), 10, 100), report.EpochStamp{
			SealNs: seal,
			ShipNs: seal + 7_000,
		})
	}

	// An event inside epoch 0, closed by a later mirror, stamps detect.
	f := key(1)
	c.AddMirror(mirrorAt(0, 0, 1_000, f))
	c.AddMirror(mirrorAt(0, 0, 2_000, f))
	c.AddMirror(mirrorAt(0, 0, 200_000, f))
	if c.Poll() != 1 {
		t.Fatal("expected one emitted event")
	}

	traces := c.Traces()
	if len(traces) != hosts {
		t.Fatalf("traced %d epochs, want %d", len(traces), hosts)
	}
	for _, tr := range traces {
		if tr.SealNs == 0 || tr.ShipNs == 0 || tr.AdmitNs == 0 || tr.DetectNs == 0 {
			t.Fatalf("incomplete trace %+v", tr)
		}
		if !(tr.SealNs <= tr.ShipNs && tr.ShipNs <= tr.AdmitNs && tr.AdmitNs <= tr.DetectNs) {
			t.Fatalf("non-monotone stamps %+v", tr)
		}
		stages := (tr.ShipNs - tr.SealNs) + (tr.AdmitNs - tr.ShipNs) + (tr.DetectNs - tr.AdmitNs)
		if stages != tr.DetectNs-tr.SealNs {
			t.Fatalf("stage sum %d != end-to-end %d for %+v", stages, tr.DetectNs-tr.SealNs, tr)
		}
	}

	for _, h := range []*telemetry.Histogram{st.SealShipNs, st.ShipAdmitNs, st.AdmitDetectNs, st.SealDetectNs} {
		if h.Count() != hosts {
			t.Fatalf("stage histogram count = %d, want %d", h.Count(), hosts)
		}
	}
	stageSum := st.SealShipNs.Sum() + st.ShipAdmitNs.Sum() + st.AdmitDetectNs.Sum()
	if stageSum != st.SealDetectNs.Sum() {
		t.Fatalf("stage sums %d != end-to-end sum %d", stageSum, st.SealDetectNs.Sum())
	}
	if st.SealShipNs.Sum() != hosts*7_000 {
		t.Errorf("seal→ship sum = %d, want %d", st.SealShipNs.Sum(), hosts*7_000)
	}

	// A second pass emits nothing new; detect stamps must not be rewritten.
	before := c.Traces()
	c.Poll()
	after := c.Traces()
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("idle poll mutated trace %d: %+v -> %+v", i, before[i], after[i])
		}
	}
}

// TestTraceUnstampedReportsSkipStageHistograms checks legacy (unstamped)
// input: the trace opens at admit, detect still lands, but the stamped
// stage histograms stay silent except admit→detect.
func TestTraceUnstampedReportsSkipStageHistograms(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats(reg)
	c := New(Config{GapNs: 50_000, Stats: st})
	c.Add(0, mkReport(0, key(0), 10, 100))

	f := key(1)
	c.AddMirror(mirrorAt(0, 0, 1_000, f))
	c.AddMirror(mirrorAt(0, 0, 200_000, f))
	c.Poll()

	traces := c.Traces()
	if len(traces) != 1 {
		t.Fatalf("traces = %d, want 1", len(traces))
	}
	tr := traces[0]
	if tr.SealNs != 0 || tr.ShipNs != 0 {
		t.Errorf("unstamped report grew seal/ship stamps: %+v", tr)
	}
	if tr.AdmitNs == 0 || tr.DetectNs == 0 {
		t.Errorf("admit/detect missing: %+v", tr)
	}
	if st.SealShipNs.Count() != 0 || st.ShipAdmitNs.Count() != 0 || st.SealDetectNs.Count() != 0 {
		t.Error("stamped-stage histograms observed unstamped input")
	}
	if st.AdmitDetectNs.Count() != 1 {
		t.Errorf("admit→detect count = %d, want 1", st.AdmitDetectNs.Count())
	}
}

// TestTraceStampBackfillFromStream round-trips the wire layout — report
// frame first, stamp frame second — through IngestStream and checks the
// collector backfills the seal/ship stamps onto the already-open trace.
func TestTraceStampBackfillFromStream(t *testing.T) {
	var buf bytes.Buffer
	sw, err := report.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for h := 0; h < 2; h++ {
		var enc bytes.Buffer
		if _, err := mkReport(h, key(h), 10, 100).Encode(&enc); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteEncoded(5, h, enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteStamp(5, h, report.EpochStamp{SealNs: 1_000 + int64(h), ShipNs: 2_000 + int64(h)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}

	reg := telemetry.NewRegistry()
	st := NewStats(reg)
	c := New(Config{Stats: st})
	n, bad, err := c.IngestStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("ingest: n=%d bad=%d err=%v", n, bad, err)
	}
	if n != 2 {
		t.Fatalf("ingested %d reports, want 2", n)
	}
	traces := c.Traces()
	if len(traces) != 2 {
		t.Fatalf("traces = %d, want 2", len(traces))
	}
	for _, tr := range traces {
		if tr.SealNs != 1_000+int64(tr.Host) || tr.ShipNs != 2_000+int64(tr.Host) {
			t.Errorf("stamp not backfilled: %+v", tr)
		}
		if tr.AdmitNs == 0 {
			t.Errorf("admit stamp missing: %+v", tr)
		}
	}
	if st.SealShipNs.Count() != 2 || st.ShipAdmitNs.Count() != 2 {
		t.Errorf("backfill observed %d/%d stamped stages, want 2/2",
			st.SealShipNs.Count(), st.ShipAdmitNs.Count())
	}
}

// TestTraceRingBounded pins the overwrite-oldest discipline: with a ring
// of 4, admitting 10 epochs keeps exactly the newest 4 traces, and a stamp
// for an overwritten epoch is a silent no-op.
func TestTraceRingBounded(t *testing.T) {
	c := New(Config{})
	c.traces = newTraceRing(4)
	for e := uint64(0); e < 10; e++ {
		c.Add(e, mkReport(0, key(0), 10, 100))
	}
	traces := c.Traces()
	if len(traces) != 4 {
		t.Fatalf("ring holds %d traces, want 4", len(traces))
	}
	for i, tr := range traces {
		if tr.Epoch != uint64(6+i) {
			t.Errorf("slot %d holds epoch %d, want %d (oldest-first)", i, tr.Epoch, 6+i)
		}
	}
	// Stamping an evicted epoch must not resurrect or corrupt anything.
	c.Stamp(0, 1, report.EpochStamp{SealNs: 1, ShipNs: 2})
	if got := c.Traces(); len(got) != 4 || got[0].SealNs != 0 {
		t.Errorf("late stamp mutated ring: %+v", got)
	}
	if st := c.Status(); st.TracedEpochs != 4 {
		t.Errorf("status traced_epochs = %d, want 4", st.TracedEpochs)
	}
}

// TestStatusSnapshot covers the /api/status source of truth: window
// occupancy, per-host epoch lists, watermark presence, ingest counters.
func TestStatusSnapshot(t *testing.T) {
	c := New(Config{WindowEpochs: 3, DecodeBudget: 8})
	st := c.Status()
	if st.HasWatermark || st.ReportsIngested != 0 || len(st.Hosts) != 0 {
		t.Fatalf("fresh status = %+v", st)
	}
	for e := uint64(0); e < 5; e++ {
		for h := 0; h < 2; h++ {
			c.Add(e, mkReport(h, key(h), 10, 100))
		}
	}
	f := key(1)
	c.AddMirror(mirrorAt(0, 0, 1_000, f))
	c.AddMirror(mirrorAt(0, 0, 200_000, f))
	c.Poll()

	st = c.Status()
	if st.WindowEpochs != 3 || st.DecodeBudget != 8 {
		t.Errorf("config echo = %+v", st)
	}
	if len(st.Epochs) != 3 || st.Epochs[0] != 2 || st.Epochs[2] != 4 {
		t.Errorf("epochs = %v, want [2 3 4]", st.Epochs)
	}
	if st.ResidentReports != 6 || st.EvictionFloor != 2 {
		t.Errorf("resident=%d floor=%d, want 6/2", st.ResidentReports, st.EvictionFloor)
	}
	if len(st.Hosts) != 2 || st.Hosts[0].Host != 0 || st.Hosts[1].Host != 1 {
		t.Fatalf("hosts = %+v", st.Hosts)
	}
	for _, hw := range st.Hosts {
		if len(hw.Epochs) != 3 {
			t.Errorf("host %d epochs = %v", hw.Host, hw.Epochs)
		}
	}
	if !st.HasWatermark || st.WatermarkNs != 200_000 {
		t.Errorf("watermark = %v/%d", st.HasWatermark, st.WatermarkNs)
	}
	if st.ReportsIngested != 10 || st.MirrorsIngested != 2 || st.EventsEmitted != 1 {
		t.Errorf("counters = %d/%d/%d, want 10/2/1",
			st.ReportsIngested, st.MirrorsIngested, st.EventsEmitted)
	}

	// A drain closes the open event and leaves the watermark at the last
	// mirror; a collector that never saw a mirror still has none.
	c.Drain()
	if st = c.Status(); !st.HasWatermark || st.WatermarkNs != 200_000 || c.watermark.Load() != 200_000 || st.EventsEmitted != 2 {
		t.Errorf("after drain: watermark = %v/%d, %d events, want true/200000, 2", st.HasWatermark, st.WatermarkNs, st.EventsEmitted)
	}
	quiet := New(Config{})
	quiet.Add(0, mkReport(0, key(0), 10, 100))
	quiet.Drain()
	if st = quiet.Status(); st.HasWatermark || st.WatermarkNs != 0 || st.EventsEmitted != 0 {
		t.Errorf("drained without mirrors: watermark = %v/%d, %d events, want none", st.HasWatermark, st.WatermarkNs, st.EventsEmitted)
	}
}

// oracleNoteDetect is the detection stamp as it was before the pending
// lists: a scan of the whole ring per emitted event.
func oracleNoteDetect(c *Collector, startNs, endNs, detectNs int64) {
	e0 := epochOf(startNs, c.cfg.EpochNs)
	e1 := epochOf(endNs, c.cfg.EpochNs)
	for i := range c.traces.buf {
		tr := &c.traces.buf[i]
		if tr.DetectNs != 0 || tr.Epoch < e0 || tr.Epoch > e1 {
			continue
		}
		tr.DetectNs = detectNs
		c.stats.AdmitDetectNs.Observe(detectNs - tr.AdmitNs)
		if tr.SealNs != 0 {
			c.stats.SealDetectNs.Observe(detectNs - tr.SealNs)
		}
	}
}

// TestNoteDetectMatchesRingScan drives two collectors through one random
// schedule of admits, re-admits, ring overwrites, late stamps and events —
// one stamping through the pending lists, one through the full-ring scan —
// and requires identical lifecycle rings and tail-stage histograms after
// every step, and the pending lists to hold exactly the undetected records.
func TestNoteDetectMatchesRingScan(t *testing.T) {
	const epochNs = 1000
	for _, ringCap := range []int{1, 5, 32, 4096} {
		rng := rand.New(rand.NewSource(int64(ringCap)))
		stNew, stOld := NewStats(telemetry.NewRegistry()), NewStats(telemetry.NewRegistry())
		got := New(Config{EpochNs: epochNs, Stats: stNew})
		want := New(Config{EpochNs: epochNs, Stats: stOld})
		got.traces, want.traces = newTraceRing(ringCap), newTraceRing(ringCap)
		clock, head := int64(1), uint64(0)
		for step := 0; step < 4000; step++ {
			clock += int64(1 + rng.Intn(50))
			switch op := rng.Intn(10); {
			case op < 5: // admit near the head epoch (old epochs: re-admits)
				if rng.Intn(4) == 0 {
					head++
				}
				host, epoch := rng.Intn(6), head-min(head, uint64(rng.Intn(4)))
				var st report.EpochStamp
				if rng.Intn(2) == 0 {
					st = report.EpochStamp{SealNs: clock - 20, ShipNs: clock - 10}
				}
				got.noteAdmit(host, epoch, st, clock)
				want.noteAdmit(host, epoch, st, clock)
			case op < 6: // late stamp
				host, epoch := rng.Intn(6), head-min(head, uint64(rng.Intn(4)))
				st := report.EpochStamp{SealNs: clock - 20, ShipNs: clock - 10}
				got.noteStamp(host, epoch, st)
				want.noteStamp(host, epoch, st)
			default: // event: inside an epoch, across a few, across all, reversed, before time 0
				start := int64(head)*epochNs - int64(rng.Intn(5*epochNs))
				end := start + int64(rng.Intn(3*epochNs))
				switch rng.Intn(12) {
				case 0:
					start, end = -5, 1<<40
				case 1:
					start, end = end+epochNs, start
				}
				detectNs := clock
				if rng.Intn(25) == 0 {
					detectNs = 0 // a zero clock reading stamps nothing durable
				}
				got.noteDetect(start, end, detectNs)
				oracleNoteDetect(want, start, end, detectNs)
			}
			if g, w := got.Traces(), want.Traces(); !reflect.DeepEqual(g, w) {
				t.Fatalf("cap %d step %d: rings differ\n got %+v\nwant %+v", ringCap, step, g, w)
			}
			pending := map[uint64][]int{}
			for slot, tr := range got.traces.buf {
				if tr.DetectNs == 0 {
					pending[tr.Epoch] = append(pending[tr.Epoch], slot)
				}
			}
			for _, slots := range got.traces.pending {
				sort.Ints(slots) // order within an epoch carries no meaning
			}
			if !reflect.DeepEqual(got.traces.pending, pending) {
				t.Fatalf("cap %d step %d: pending = %v, undetected records = %v", ringCap, step, got.traces.pending, pending)
			}
		}
		for _, h := range [][2]*telemetry.Histogram{
			{stNew.AdmitDetectNs, stOld.AdmitDetectNs}, {stNew.SealDetectNs, stOld.SealDetectNs},
			{stNew.SealShipNs, stOld.SealShipNs}, {stNew.ShipAdmitNs, stOld.ShipAdmitNs},
		} {
			if h[0].Count() != h[1].Count() || h[0].Sum() != h[1].Sum() || h[0].Count() == 0 {
				t.Errorf("cap %d: histogram count/sum %d/%d, ring scan observed %d/%d",
					ringCap, h[0].Count(), h[0].Sum(), h[1].Count(), h[1].Sum())
			}
		}
	}
}
