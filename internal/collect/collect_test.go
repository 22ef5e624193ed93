package collect

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"reflect"
	"runtime"
	"testing"

	"umon/internal/analyzer"
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

// mkReport builds a tiny report for host carrying flow f at window w.
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

// TestAdmitResidentBytes bounds what an admitted report keeps resident: a
// full fleet-scale window — 17 epochs of the 125 fleet-geometry hosts, 2,125
// reports as bench/ admits them, through report.Decode and AddStamped at a
// decode budget of 64 — grows the heap by at most 8 KB a report after a
// collection: the payload and the index, not a decoded copy of every curve
// nor a cache for one. Once one flow per host is queried over the window,
// every report holds its caches and three curves, at most 14 KB in all.
func TestAdmitResidentBytes(t *testing.T) {
	const epochs = 17
	enc := fleetEpoch(t, admitHosts)
	payload := 0
	for _, p := range enc {
		payload += len(p)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	col := New(Config{WindowEpochs: epochs, DecodeBudget: 64})
	for e := uint64(0); e < epochs; e++ {
		for _, p := range enc {
			rep, err := report.Decode(bytes.NewReader(p))
			if err != nil {
				t.Fatal(err)
			}
			col.AddStamped(e, rep, report.EpochStamp{})
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if _, resident := col.Window(); resident != epochs*admitHosts {
		t.Fatalf("%d reports resident, want %d", resident, epochs*admitHosts)
	}
	perReport := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (epochs * admitHosts)
	t.Logf("%d reports of %d payload bytes on average: %.0f B resident a report", epochs*admitHosts, payload/len(enc), perReport)
	if perReport > 8<<10 {
		t.Errorf("%.0f B resident a report, want ≤ 8 KB", perReport)
	}

	for h := 0; h < admitHosts; h++ {
		col.QueryFlow(admitKey(h*128), 0, 32)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	// Each flow's three row curves in its host's reports, and those of any
	// other report its buckets collide in.
	if got, want := col.Snapshot().ResidentCurves(), 3*epochs*admitHosts; got < want {
		t.Fatalf("%d curves resident after the queries, want ≥ %d", got, want)
	}
	perReport = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / (epochs * admitHosts)
	t.Logf("queried: %.0f B resident a report", perReport)
	if perReport > 14<<10 {
		t.Errorf("queried: %.0f B resident a report, want ≤ 14 KB", perReport)
	}
}

func TestWindowAdmitEvict(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := New(Config{WindowEpochs: 3, Stats: NewStats(reg)})
	for e := uint64(0); e < 6; e++ {
		for h := 0; h < 2; h++ {
			c.Add(e, mkReport(h, key(h), 10, 100))
		}
	}
	epochs, resident := c.Window()
	if len(epochs) != 3 || epochs[0] != 3 || epochs[2] != 5 {
		t.Fatalf("window epochs = %v, want [3 4 5]", epochs)
	}
	if resident != 6 {
		t.Errorf("resident = %d, want 6", resident)
	}
	if got := reg.Value("umon_collect_evictions_total"); got != 6 {
		t.Errorf("evictions = %d, want 6", got)
	}
	if got := reg.Value("umon_collect_window_resident"); got != 6 {
		t.Errorf("resident gauge = %d, want 6", got)
	}
	// A report for an evicted epoch is late: rejected, counted, window
	// unchanged.
	c.Add(1, mkReport(0, key(0), 10, 100))
	if got := reg.Value("umon_collect_late_reports_total"); got != 1 {
		t.Errorf("late reports = %d, want 1", got)
	}
	if _, resident := c.Window(); resident != 6 {
		t.Errorf("late report changed residency to %d", resident)
	}
}

func TestQueryFlowMergesWindow(t *testing.T) {
	c := New(Config{WindowEpochs: 4})
	c.Add(0, mkReport(0, key(1), 10, 100))
	c.Add(1, mkReport(1, key(2), 12, 200))
	got := c.QueryFlow(key(1), 10, 13)
	if got[0] != 100 || got[1] != 0 {
		t.Errorf("flow 1 = %v", got)
	}
	got = c.QueryFlow(key(2), 10, 13)
	if got[2] != 200 {
		t.Errorf("flow 2 = %v", got)
	}
	if got := c.QueryFlow(key(9), 5, 3); len(got) != 0 {
		t.Errorf("inverted range should be empty, got %v", got)
	}
}

func TestOnlineDetectionEmitsClosedEvents(t *testing.T) {
	reg := telemetry.NewRegistry()
	st := NewStats(reg)
	var online []analyzer.Event
	c := New(Config{
		GapNs:   50_000,
		OnEvent: func(ev analyzer.Event) { online = append(online, ev) },
		Stats:   st,
	})
	f := key(1)
	// Event 1: [1000..2000]. A mirror at 200000 proves it closed.
	c.AddMirror(mirrorAt(0, 0, 1000, f))
	c.AddMirror(mirrorAt(0, 0, 2000, f))
	if c.Poll() != 0 {
		t.Fatal("event emitted while watermark still within gap")
	}
	c.AddMirror(mirrorAt(0, 0, 200_000, f))
	if got := c.Poll(); got != 1 {
		t.Fatalf("Poll emitted %d, want 1", got)
	}
	if len(online) != 1 || online[0].StartNs != 1000 || online[0].EndNs != 2000 {
		t.Fatalf("online event = %+v", online)
	}
	if reg.Value("umon_collect_events_emitted_total") != 1 {
		t.Error("emitted counter not bumped")
	}
	if st.DetectLagNs.Count() != 1 || st.DetectLagNs.Sum() != 198_000 {
		t.Errorf("detect lag count/sum = %d/%d, want 1/198000",
			st.DetectLagNs.Count(), st.DetectLagNs.Sum())
	}
	// A late mirror below the trim horizon is dropped, not resurrected.
	c.AddMirror(mirrorAt(0, 0, 1500, f))
	if reg.Value("umon_collect_late_mirrors_total") != 1 {
		t.Error("late mirror not counted")
	}
	// Drain closes the open [200000..200000] event.
	evs := c.Drain()
	if len(evs) != 2 {
		t.Fatalf("drained %d events, want 2", len(evs))
	}
	if evs[1].StartNs != 200_000 || evs[1].Packets != 1 {
		t.Errorf("drained tail event = %+v", evs[1])
	}
}

func TestStreamingMatchesBatchDetection(t *testing.T) {
	// The same in-order mirror feed through the collector (with automatic
	// polling and trimming along the way) and through the batch analyzer
	// must yield identical event lists.
	var feed []uevent.MirrorRecord
	ns := int64(0)
	for burst := 0; burst < 40; burst++ {
		ns += 300_000 // quiet gap between bursts
		for p := 0; p < 10+burst%7; p++ {
			ns += 5_000
			feed = append(feed, mirrorAt(int16(burst%3), int16(p%2), ns, key(p%4)))
		}
	}
	c := New(Config{GapNs: 50_000})
	batch := analyzer.New()
	for _, m := range feed {
		c.AddMirror(m)
		batch.AddMirror(m)
	}
	got, want := c.Drain(), batch.DetectEvents(50_000)
	if len(got) != len(want) {
		t.Fatalf("streaming %d events, batch %d", len(got), len(want))
	}
	for i := range got {
		if got[i].StartNs != want[i].StartNs || got[i].EndNs != want[i].EndNs ||
			got[i].Packets != want[i].Packets || got[i].Port != want[i].Port {
			t.Errorf("event %d: streaming %+v != batch %+v", i, got[i], want[i])
		}
	}
}

func TestIngestStreamAdmitsFrames(t *testing.T) {
	var buf bytes.Buffer
	sw, err := report.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 3; e++ {
		if err := sw.WriteEncoded(e, int(e), mkReport(int(e), key(int(e)), 10, 100).AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
		if err := sw.WriteStamp(e, int(e), report.EpochStamp{SealNs: 1, ShipNs: 2}); err != nil {
			t.Fatal(err)
		}
	}
	// A stamp frame whose payload is no stamp: a five-byte frame with the
	// type patched and the CRC (over the 24-byte header and the payload)
	// redone. It counts as bad like the undecodable report after it.
	const hdr, short = 24, 5
	torn := buf.Len()
	for i := 0; i < 2; i++ {
		if err := sw.WriteEncoded(9, 9, make([]byte, short)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	fr := buf.Bytes()[torn : torn+hdr+short+4]
	fr[4] = report.FrameStamp
	binary.LittleEndian.PutUint32(fr[hdr+short:], crc32.ChecksumIEEE(fr[:hdr+short]))
	c := New(Config{WindowEpochs: 8})
	n, bad, err := c.IngestStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 2 {
		t.Fatalf("ingest: %v (bad %d, want the torn stamp and the torn report)", err, bad)
	}
	if n != 3 {
		t.Fatalf("ingested %d reports, want 3", n)
	}
	epochs, resident := c.Window()
	if len(epochs) != 3 || resident != 3 {
		t.Fatalf("window = %v / %d", epochs, resident)
	}
}

// TestIngestStreamSkipsCRCDamage flips one payload byte of the second of
// five report frames: the feed goes on past it, admitting the other four
// and counting the damaged frame as the one bad frame.
func TestIngestStreamSkipsCRCDamage(t *testing.T) {
	var buf bytes.Buffer
	sw, err := report.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var damaged int
	for e := uint64(0); e < 5; e++ {
		if e == 1 {
			damaged = buf.Len() + 24 + 3 // a payload byte: the header is 24 bytes
		}
		if err := sw.WriteEncoded(e, int(e), mkReport(int(e), key(int(e)), 10, 100).AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	buf.Bytes()[damaged] ^= 0x40
	c := New(Config{})
	n, bad, err := c.IngestStream(bytes.NewReader(buf.Bytes()))
	if err != nil || n != 4 || bad != 1 {
		t.Fatalf("ingest = %d reports, %d bad, err %v; want 4, 1, nil", n, bad, err)
	}
	if epochs, _ := c.Window(); !reflect.DeepEqual(epochs, []uint64{0, 2, 3, 4}) {
		t.Fatalf("window = %v, want every epoch but the damaged one", epochs)
	}
}

// TestIngestStreamReadsLegacyIndexAndFooter: a file an older writer closed
// with its epoch index and footer is admitted like the same file without
// them — the same reports, no bad frame, and a clean end at the footer.
func TestIngestStreamReadsLegacyIndexAndFooter(t *testing.T) {
	var buf bytes.Buffer
	sw, err := report.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The index payload: the report count, then (epoch, host, offset,
	// length) of each report frame, all uvarints.
	index := binary.AppendUvarint(nil, 3)
	for e := uint64(0); e < 3; e++ {
		off := buf.Len()
		if err := sw.WriteEncoded(e, int(e), mkReport(int(e), key(int(e)), 10, 100).AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
		for _, v := range []uint64{e, e, uint64(off), uint64(buf.Len() - off)} {
			index = binary.AppendUvarint(index, v)
		}
	}
	plain := bytes.Clone(buf.Bytes())
	// The index frame: magic "uFR0", type 2, payload version 0, host and
	// epoch 0, the payload and its CRC. Then the footer: magic "uMSE", a
	// reserved zero and the index frame's offset.
	fr := binary.LittleEndian.AppendUint32(nil, 0x75465230)
	fr = append(fr, 2, 0, 0, 0)
	fr = append(fr, make([]byte, 12)...)
	fr = append(binary.LittleEndian.AppendUint32(fr, uint32(len(index))), index...)
	fr = binary.LittleEndian.AppendUint32(fr, crc32.ChecksumIEEE(fr))
	legacy := append(bytes.Clone(plain), fr...)
	legacy = binary.LittleEndian.AppendUint32(legacy, 0x754d5345)
	legacy = binary.LittleEndian.AppendUint32(legacy, 0)
	legacy = binary.LittleEndian.AppendUint64(legacy, uint64(len(plain)))

	var windows [2][]uint64
	for i, raw := range [][]byte{plain, legacy} {
		c := New(Config{})
		n, bad, err := c.IngestStream(bytes.NewReader(raw))
		if err != nil || n != 3 || bad != 0 {
			t.Fatalf("stream %d: %d reports, %d bad, err %v; want 3, 0, nil", i, n, bad, err)
		}
		windows[i], _ = c.Window()
	}
	if !reflect.DeepEqual(windows[0], windows[1]) {
		t.Errorf("window with the legacy tail = %v, without %v", windows[1], windows[0])
	}
}

func TestAddMirrorPacketWire(t *testing.T) {
	c := New(Config{})
	rec := mirrorAt(1, 2, 5_000, key(1))
	if err := c.AddMirrorPacket(uevent.AppendMirrorPacket(nil, rec)); err != nil {
		t.Fatal(err)
	}
	if c.watermark.Load() != 5_000 {
		t.Errorf("watermark = %d, want 5000", c.watermark.Load())
	}
	if err := c.AddMirrorPacket([]byte{1, 2, 3}); err == nil {
		t.Error("garbage packet must fail to parse")
	}
	evs := c.Drain()
	if len(evs) != 1 || evs[0].Port != (netsim.PortID{Switch: 1, Port: 2}) {
		t.Fatalf("events = %+v", evs)
	}
}

func TestReplayOverWindow(t *testing.T) {
	c := New(Config{})
	f := key(1)
	// Flow active around window 12 (≈ ns 98304..106496).
	c.Add(0, mkReport(0, f, 12, 4096))
	c.AddMirror(mirrorAt(0, 0, 100_000, f))
	evs := c.Drain()
	if len(evs) != 1 {
		t.Fatalf("events = %d, want 1", len(evs))
	}
	view := c.Replay(evs[0], 20_000)
	curve := view.Curves[f]
	if curve == nil {
		t.Fatal("replay lost the event flow")
	}
	sum := 0.0
	for _, v := range curve {
		sum += v
	}
	if sum != 4096 {
		t.Errorf("replayed curve mass = %v, want 4096", sum)
	}
}
