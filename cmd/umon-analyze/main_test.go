package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/uevent"
	"umon/internal/wavesketch"
)

// writeMirrorPcap fabricates a small mirror capture.
func writeMirrorPcap(t *testing.T, path string) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := pcapio.NewWriter(f, 0)
	flow := flowkey.Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 9, DstPort: 4791, Proto: 17}
	for i := int64(0); i < 20; i++ {
		rec := uevent.MirrorRecord{
			Port:        netsim.PortID{Switch: 2, Port: 1},
			TimestampNs: 100_000 + i*5_000,
			PSN:         uint32(i * 64),
			OrigBytes:   1058, WireBytes: 1058,
			Flow: flow,
		}
		if err := w.WritePacket(pcapio.Packet{
			TimestampNs: rec.TimestampNs,
			Data:        uevent.AppendMirrorPacket(nil, rec),
			OrigLen:     1058,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeRuns(t *testing.T) {
	dir := t.TempDir()
	pcap := filepath.Join(dir, "mirrors.pcap")
	writeMirrorPcap(t, pcap)
	if err := run(pcap, "", 50_000, 5, 100_000, 0, nil); err != nil {
		t.Fatal(err)
	}
}

// TestAnalyzeTelemetry runs the analyzer with a live registry and checks
// the query-plane counters moved: replays happened and every stage span
// was recorded.
func TestAnalyzeTelemetry(t *testing.T) {
	dir := t.TempDir()
	pcap := filepath.Join(dir, "mirrors.pcap")
	writeMirrorPcap(t, pcap)
	reg := telemetry.NewRegistry()
	if err := run(pcap, "", 50_000, 5, 100_000, 0, reg); err != nil {
		t.Fatal(err)
	}
	if reg.Value("umon_analyzer_replays_total") == 0 {
		t.Error("replay counter not live")
	}
	for _, stage := range []string{"mirror_ingest", "detect_events", "replay"} {
		name := `umon_stage_runs_total{stage="` + stage + `"}`
		if reg.Value(name) == 0 {
			t.Errorf("stage %s not traced", stage)
		}
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "nope.pcap"), "", 1000, 1, 1000, 0, nil); err == nil {
		t.Error("missing capture must fail")
	}
}

func TestAnalyzeGarbageCapture(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.pcap")
	os.WriteFile(path, []byte("not a pcap"), 0o644)
	if err := run(path, "", 1000, 1, 1000, 0, nil); err == nil {
		t.Error("garbage capture must fail")
	}
}

// TestAnalyzeTruncatedCapture cuts the capture mid-record: the run must
// fail with the read error and still hand every pooled buffer back.
func TestAnalyzeTruncatedCapture(t *testing.T) {
	path := filepath.Join(t.TempDir(), "mirrors.pcap")
	writeMirrorPcap(t, path)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	if err := run(path, "", 50_000, 5, 100_000, 0, reg); err == nil {
		t.Fatal("truncated capture must fail")
	}
	got := reg.Value("umon_mbuf_alloc_hits_total") + reg.Value("umon_mbuf_alloc_misses_total")
	if recycled := reg.Value("umon_mbuf_recycled_total"); got == 0 || recycled != got {
		t.Errorf("%d pooled buffers allocated, %d recycled", got, recycled)
	}
}

// TestAnalyzeFramedReports feeds the analyzer a framed .umstream through
// a directory and through a direct file path — both must ingest cleanly
// alongside a mirror capture — and checks the directories it must refuse:
// one with no stream in it, and one holding only the removed per-period
// .umon files, which the error must name.
func TestAnalyzeFramedReports(t *testing.T) {
	mk := func(host int, w int64, v int64) *report.HostReport {
		s, err := wavesketch.NewBasic(wavesketch.Default(16))
		if err != nil {
			t.Fatal(err)
		}
		s.Update(flowkey.Key{SrcIP: 0x0a000101, DstIP: 0x0a000201, SrcPort: 9, DstPort: 4791, Proto: 17}, w, v)
		s.Seal()
		return report.FromBasic(host, 0, s)
	}

	streamDir := t.TempDir()
	pcap := filepath.Join(streamDir, "mirrors.pcap")
	writeMirrorPcap(t, pcap)
	sf, err := os.Create(filepath.Join(streamDir, "reports.umstream"))
	if err != nil {
		t.Fatal(err)
	}
	sw, err := report.NewStreamWriter(sf)
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(0); e < 3; e++ {
		if err := sw.WriteEncoded(e, int(e), mk(int(e), 12, 100).AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sf.Close(); err != nil {
		t.Fatal(err)
	}

	if err := run(pcap, streamDir, 50_000, 5, 100_000, 0, nil); err != nil {
		t.Fatalf("stream dir: %v", err)
	}
	if err := run(pcap, filepath.Join(streamDir, "reports.umstream"), 50_000, 5, 100_000, 2, nil); err != nil {
		t.Fatalf("stream file: %v", err)
	}
	a := analyzer.New()
	if n, err := ingestReports(a, streamDir, 0); err != nil || n != 3 {
		t.Fatalf("stream dir ingested %d (err %v), want 3", n, err)
	}

	emptyDir := t.TempDir()
	err = run(pcap, emptyDir, 50_000, 5, 100_000, 0, nil)
	if err == nil || !strings.Contains(err.Error(), emptyDir) {
		t.Errorf("directory without a stream: err = %v, want one naming %s", err, emptyDir)
	}
	if err := os.WriteFile(filepath.Join(emptyDir, "report-h00-000.umon"), mk(0, 12, 100).AppendEncode(nil), 0o644); err != nil {
		t.Fatal(err)
	}
	err = run(pcap, emptyDir, 50_000, 5, 100_000, 0, nil)
	if err == nil || !strings.Contains(err.Error(), emptyDir) ||
		!strings.Contains(err.Error(), "format was removed") || !strings.Contains(err.Error(), "umon-sim") {
		t.Errorf("legacy directory: err = %v, want one naming %s, the removed format and umon-sim", err, emptyDir)
	}
}
