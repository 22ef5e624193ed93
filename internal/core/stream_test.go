package core

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"umon/internal/report"
)

func streamCfg(periodNs int64) StreamMonitorConfig {
	return StreamMonitorConfig{
		HostMonitorConfig: HostMonitorConfig{
			Sketch:   DefaultHostMonitor().Sketch,
			PeriodNs: periodNs,
		},
	}
}

// feedPackets drives a deterministic three-epoch packet stream into any
// OnPacket-shaped monitor.
func feedPackets(t *testing.T, on func(ns int64) error) {
	t.Helper()
	for ns := int64(0); ns < 2_500_000; ns += 10_000 {
		if err := on(ns); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStreamMonitorThroughStreamSink runs the full host-side pipeline —
// monitor → StreamSink framing → stream decode — and checks the decoded
// (host, epoch) sequence.
func TestStreamMonitorThroughStreamSink(t *testing.T) {
	var buf bytes.Buffer
	sink, err := NewStreamSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewStreamHostMonitor(7, streamCfg(1_000_000), sink)
	if err != nil {
		t.Fatal(err)
	}
	f := testKey(2)
	feedPackets(t, func(ns int64) error { return m.OnPacket(f, ns, 900) })
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Frames() != 3 {
		t.Errorf("framed %d reports, want 3", sink.Frames())
	}
	// The finished file reads back in order, one report per epoch.
	sr, err := report.NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var epochs []uint64
	var fr report.Frame
	for {
		if err := sr.Next(&fr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if fr.Type != report.FrameReport {
			continue // the monitor's lifecycle stamps
		}
		rep, err := report.DecodeBytes(fr.Payload)
		if err != nil || rep.Host != 7 || fr.Host != 7 {
			t.Errorf("epoch %d: host %d (err %v), want 7", fr.Epoch, fr.Host, err)
		}
		epochs = append(epochs, fr.Epoch)
	}
	if !reflect.DeepEqual(epochs, []uint64{0, 1, 2}) {
		t.Errorf("epochs read = %v, want [0 1 2]", epochs)
	}
}

// TestStreamSinkStateIsBounded: a sink's state does not grow with the
// stream it writes. Shipping 65,536 stamped reports costs less in all
// than a 64 KiB heap — an index kept per frame would be megabytes.
func TestStreamSinkStateIsBounded(t *testing.T) {
	const reports = 1 << 16
	sink, err := NewStreamSink(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	sr := SealedReport{Host: 3, Encoded: make([]byte, 200), SealedAtNs: 1}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reports; i++ {
		sr.Epoch = uint64(i)
		if err := sink.Ship(sr); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.Frames() != reports {
		t.Errorf("framed %d reports, want %d", sink.Frames(), reports)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Errorf("shipping %d reports allocated %d bytes, want < 64 KiB", reports, got)
	}
}

// TestStreamMonitorIdleGapSealsEveryEpoch: skipped epochs still seal
// (empty) reports, in order and under their own epoch numbers, so the
// collector's window advances even through silence.
func TestStreamMonitorIdleGapSealsEveryEpoch(t *testing.T) {
	var epochs []uint64
	m, err := NewStreamHostMonitor(0, streamCfg(1_000_000), FuncSink(func(sr SealedReport) error {
		epochs = append(epochs, sr.Epoch)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	f := testKey(1)
	if err := m.OnPacket(f, 100, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.OnPacket(f, 5_100_000, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 6 {
		t.Fatalf("sealed %d epochs across idle gap, want 6 (0-5)", len(epochs))
	}
	for i, e := range epochs {
		if e != uint64(i) {
			t.Errorf("epoch %d sealed as %d", i, e)
		}
	}
	if b, n := m.Stats(); n != 6 || b <= 0 {
		t.Errorf("stats = %d bytes / %d reports, shipped 6", b, n)
	}
}

// TestStreamMonitorIdleEpochsShipHeadersOnly: a host back from a long
// silence ships one report per epoch it skipped, each the header alone
// under its own period start, without sealing or resetting the sketch for
// any of them — the packet that ends the silence does not pay
// for it in bucket work or allocations.
func TestStreamMonitorIdleEpochsShipHeadersOnly(t *testing.T) {
	const periodNs, idle = 1_000_000, 499
	var got []*report.HostReport
	var decodeErr error
	sink := FuncSink(func(sr SealedReport) error {
		rep, err := report.DecodeBytes(sr.Encoded)
		if err != nil {
			decodeErr = err
		}
		got = append(got, rep)
		return nil
	})
	m, err := NewStreamHostMonitor(0, streamCfg(periodNs), sink)
	if err != nil {
		t.Fatal(err)
	}
	f := testKey(1)
	if err := m.OnPacket(f, 100, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.OnPacket(f, (idle+1)*periodNs+100, 1000); err != nil {
		t.Fatal(err)
	}
	if decodeErr != nil || len(got) != idle+1 {
		t.Fatalf("shipped %d reports (decode error %v), want %d", len(got), decodeErr, idle+1)
	}
	if est := report.NewQueryable(got[0]).QueryRange(f, 0, 1); est[0] != 1000 {
		t.Errorf("the epoch with a packet estimates %v bytes for it, want 1000", est[0])
	}
	for e, rep := range got[1:] {
		lo, hi := report.NewQueryable(rep).Span()
		if want := int64(e+1) * periodNs >> 13; lo <= hi || rep.PeriodStart != want {
			t.Fatalf("idle epoch %d: curves over [%d, %d), period start %d (want none, %d)", e+1, lo, hi, rep.PeriodStart, want)
		}
	}

	// Steady state: a gap of idle epochs per call, no allocation.
	quiet, err := NewStreamHostMonitor(0, streamCfg(periodNs), FuncSink(func(SealedReport) error { return nil }))
	if err != nil {
		t.Fatal(err)
	}
	ns := int64(0)
	gap := func() {
		ns += (idle + 1) * periodNs
		if err := quiet.OnPacket(f, ns, 1000); err != nil {
			t.Fatal(err)
		}
	}
	gap()
	gap()
	if allocs := testing.AllocsPerRun(5, gap); allocs != 0 {
		t.Errorf("%d idle epochs and a seal allocate %v times, want 0", idle, allocs)
	}
}

// TestStreamMonitorStampsItsWindowShift: the header carries the shift the
// monitor turns nanoseconds into windows by, not the default.
func TestStreamMonitorStampsItsWindowShift(t *testing.T) {
	cfg := streamCfg(1_000_000)
	cfg.WindowShift = 10
	var got *report.HostReport
	m, err := NewStreamHostMonitor(0, cfg, FuncSink(func(sr SealedReport) (err error) {
		got, err = report.DecodeBytes(sr.Encoded)
		return err
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.OnPacket(testKey(1), 3_000_000+5<<10, 1000); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got.WindowShift != 10 || got.PeriodStart != 3_000_000>>10 {
		t.Fatalf("shipped %+v, want WindowShift 10 and period start %d", got, 3_000_000>>10)
	}
	if w0, _ := report.NewQueryable(got).Span(); w0 != got.PeriodStart+5 {
		t.Errorf("the packet landed in window %d, want %d", w0, got.PeriodStart+5)
	}
}

// TestSealAndShipSteadyStateDoesNotAllocate: once the curve lists and the
// encode buffer have grown to an epoch's size, sealing, encoding, shipping
// and resetting allocate nothing — the report is written straight off the
// sketch.
func TestSealAndShipSteadyStateDoesNotAllocate(t *testing.T) {
	const periodNs = 1_000_000
	shipped := 0
	m, err := NewStreamHostMonitor(0, streamCfg(periodNs), FuncSink(func(sr SealedReport) error {
		shipped += len(sr.Encoded)
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	epoch := int64(0)
	oneEpoch := func() {
		for i := int64(0); i < 600; i++ {
			if err := m.OnPacket(testKey(int(i%60)), epoch*periodNs+i*1_500, 900+int(i%7)); err != nil {
				t.Fatal(err)
			}
		}
		epoch++
	}
	oneEpoch()
	oneEpoch()
	before := shipped
	if allocs := testing.AllocsPerRun(10, oneEpoch); allocs != 0 {
		t.Errorf("an epoch of packets and its seal allocate %v times, want 0", allocs)
	}
	if shipped-before < 11*1000 {
		t.Errorf("11 seals shipped %d bytes: the epochs were not sealed with their traffic", shipped-before)
	}
}

// errSink fails every Ship.
type errSink struct{ failed bool }

var errSinkDown = errors.New("sink down")

func (s *errSink) Ship(SealedReport) error { s.failed = true; return errSinkDown }
func (s *errSink) Close() error            { return nil }

// TestStreamMonitorSurfacesShipErrors: the OnPacket that crosses an epoch
// boundary returns that ship's error, and Close the first of them.
func TestStreamMonitorSurfacesShipErrors(t *testing.T) {
	sink := &errSink{}
	m, err := NewStreamHostMonitor(0, streamCfg(1_000_000), sink)
	if err != nil {
		t.Fatal(err)
	}
	f := testKey(1)
	var first error
	for ns := int64(0); ns < 2_500_000; ns += 10_000 {
		err := m.OnPacket(f, ns, 1000)
		if crossed := ns > 0 && ns%1_000_000 == 0; crossed != (err != nil) {
			t.Fatalf("OnPacket at %d ns returned %v", ns, err)
		}
		if first == nil {
			first = err
		}
	}
	if err := m.Close(); err == nil || err != first || !errors.Is(err, errSinkDown) {
		t.Errorf("Close returned %v, want the first ship error %v", err, first)
	}
	if !sink.failed {
		t.Error("sink never invoked")
	}
}

func TestStreamMonitorValidation(t *testing.T) {
	if _, err := NewStreamHostMonitor(0, StreamMonitorConfig{}, &countSink{}); err == nil {
		t.Error("PeriodNs=0 must be rejected")
	}
	if _, err := NewStreamHostMonitor(0, streamCfg(1), nil); err == nil {
		t.Error("nil sink must be rejected")
	}
	m, _ := NewStreamHostMonitor(0, streamCfg(1_000_000), &countSink{})
	if err := m.Close(); err != nil {
		t.Errorf("close before any packet: %v", err)
	}
}

// TestStreamSinkConcurrentShip hammers one StreamSink from many host
// goroutines (the deployment shape: one shared stream file) and checks
// every frame survives intact. Run under -race.
func TestStreamSinkConcurrentShip(t *testing.T) {
	var buf bytes.Buffer
	sink, err := NewStreamSink(&buf)
	if err != nil {
		t.Fatal(err)
	}
	const hosts, epochs = 8, 5
	var wg sync.WaitGroup
	for h := 0; h < hosts; h++ {
		wg.Add(1)
		go func(h int) {
			defer wg.Done()
			m, err := NewStreamHostMonitor(h, streamCfg(1_000_000), sink)
			if err != nil {
				t.Error(err)
				return
			}
			f := testKey(h)
			for ns := int64(0); ns < epochs*1_000_000; ns += 25_000 {
				if err := m.OnPacket(f, ns, 1000+h); err != nil {
					t.Error(err)
					return
				}
			}
			if err := m.Close(); err != nil {
				t.Error(err)
			}
		}(h)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := report.NewStreamReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	perHost := make(map[int]int)
	var fr report.Frame
	for {
		err := sr.Next(&fr)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type == report.FrameStamp {
			st, err := fr.Stamp()
			if err != nil {
				t.Fatal(err)
			}
			if st.SealNs <= 0 || st.ShipNs < st.SealNs {
				t.Fatalf("implausible lifecycle stamp %+v", st)
			}
			continue
		}
		if _, err := report.DecodeBytes(fr.Payload); err != nil {
			t.Fatal(err)
		}
		perHost[fr.Host]++
	}
	for h := 0; h < hosts; h++ {
		// epochs-1 boundaries crossed + the final partial epoch at Close.
		if perHost[h] != epochs {
			t.Errorf("host %d shipped %d frames, want %d", h, perHost[h], epochs)
		}
	}
}
