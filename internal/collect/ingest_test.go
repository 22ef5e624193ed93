package collect

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/packet"
	"umon/internal/pcapio"
	"umon/internal/report"
)

// dribble hands a feed over a few hundred bytes per Read and yields after
// each, so that two feed loops reading side by side really interleave.
type dribble struct{ r io.Reader }

func (d dribble) Read(p []byte) (int, error) {
	runtime.Gosched()
	return d.r.Read(p[:min(len(p), 700)])
}

// TestFeedLoopsRunConcurrently is the daemon's shape: IngestStream and
// IngestMirrorPcap run side by side on one collector while a reader polls
// the query plane, and end where the two feeds ingested one after the other
// end — the same drained events, window, counters and per-flow answers.
func TestFeedLoopsRunConcurrently(t *testing.T) {
	const hosts, epochs = 4, 160
	var stream bytes.Buffer
	sw, err := report.NewStreamWriter(&stream)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < epochs; e++ {
		for h := 0; h < hosts; h++ {
			rep := mkReport(h, key(h), int64(e)*8+int64(h), 100+int64(e))
			if err := sw.WriteEncoded(e, h, rep.AppendEncode(nil)); err != nil {
				t.Fatal(err)
			}
			if err := sw.WriteStamp(e, h, report.EpochStamp{SealNs: 1, ShipNs: 2}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	var pcap bytes.Buffer
	pw := pcapio.NewWriter(&pcap, 0)
	wire := mirrorFeed()
	for i := 0; i < feedMirrors; i++ {
		pkt := wire[i*packet.MirrorEncodedLen:][:packet.MirrorEncodedLen]
		if err := pw.WritePacket(pcapio.Packet{TimestampNs: int64(i) * feedStepNs, Data: pkt, OrigLen: len(pkt)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := pw.Flush(); err != nil {
		t.Fatal(err)
	}

	type outcome struct {
		reports, badReports, mirrors, badMirrors int
		events                                   []analyzer.Event
		epochs                                   []uint64
		resident                                 int
		status                                   Status
		curves                                   [][]float64
	}
	finish := func(c *Collector, o outcome) outcome {
		o.events = c.Drain()
		o.epochs, o.resident = c.Window()
		o.status = c.Status()
		o.status.SnapshotVersion, o.status.SnapshotPublishNs = 0, 0 // how often and when, not what
		o.status.ReportsRouted, o.status.ReportsRouteSkipped = 0, 0 // the polling reader's queries
		o.status.ResidentCurves = 0                                 // and what they left decoded
		for h := 0; h < hosts; h++ {
			o.curves = append(o.curves, c.QueryFlow(key(h), 0, epochs*8+hosts))
		}
		return o
	}
	cfg := Config{WindowEpochs: 5, EpochNs: feedSpanNs / epochs, GapNs: 50_000}

	var want outcome
	seq := New(cfg)
	if want.reports, want.badReports, err = seq.IngestStream(bytes.NewReader(stream.Bytes())); err != nil {
		t.Fatal(err)
	}
	if want.mirrors, want.badMirrors, err = seq.IngestMirrorPcap(bytes.NewReader(pcap.Bytes()), nil); err != nil {
		t.Fatal(err)
	}
	want = finish(seq, want)
	if want.reports != hosts*epochs || want.mirrors != feedMirrors || len(want.events) < 16 || want.status.EvictionFloor == 0 {
		t.Fatalf("vacuous feeds: %d reports, %d mirrors, %d events, floor %d",
			want.reports, want.mirrors, len(want.events), want.status.EvictionFloor)
	}

	var got outcome
	c := New(cfg)
	var feeds, reader sync.WaitGroup
	done := make(chan struct{})
	reader.Add(1)
	go func() {
		defer reader.Done()
		for h := 0; ; h = (h + 1) % hosts {
			select {
			case <-done:
				return
			default:
			}
			c.QueryFlow(key(h), 0, epochs*8+hosts)
			c.Status()
			c.Events()
			runtime.Gosched()
		}
	}()
	feeds.Add(2)
	go func() {
		defer feeds.Done()
		var err error
		if got.reports, got.badReports, err = c.IngestStream(dribble{bytes.NewReader(stream.Bytes())}); err != nil {
			t.Error(err)
		}
	}()
	go func() {
		defer feeds.Done()
		var err error
		if got.mirrors, got.badMirrors, err = c.IngestMirrorPcap(dribble{bytes.NewReader(pcap.Bytes())}, nil); err != nil {
			t.Error(err)
		}
	}()
	feeds.Wait()
	close(done)
	reader.Wait()
	got = finish(c, got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("side by side:\n%+v\none after the other:\n%+v", got.status, want.status)
		t.Errorf("%d/%d reports, %d/%d mirrors, %d events (want %d/%d, %d/%d, %d), curves equal: %v",
			got.reports, got.badReports, got.mirrors, got.badMirrors, len(got.events),
			want.reports, want.badReports, want.mirrors, want.badMirrors, len(want.events),
			reflect.DeepEqual(got.curves, want.curves))
	}
}
