package main

import (
	"bytes"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"fmt"

	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
)

func TestRunProducesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run("hadoop", 0.15, 2, 7, 4, 1, dir, 0, true, nil); err != nil {
		t.Fatal(err)
	}
	// Mirror pcap exists and parses.
	f, err := os.Open(filepath.Join(dir, "mirrors.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := pcapio.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	pkts, err := rd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(pkts) == 0 {
		t.Error("no mirrored packets captured")
	}
	// Reports exist: every fat-tree host sealed at least one.
	if reports := readReports(t, dir); len(reports) < 16 {
		t.Errorf("%d reports in reports.umstream, want at least one per host (16)", len(reports))
	}
	// Traffic pcap exists and parses.
	tf, err := os.Open(filepath.Join(dir, "traffic.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer tf.Close()
	trd, err := pcapio.NewReader(tf)
	if err != nil {
		t.Fatal(err)
	}
	tp, err := trd.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(tp) == 0 {
		t.Error("no traffic packets captured")
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if err := run("netflix", 0.15, 1, 7, 4, 1, t.TempDir(), 0, false, nil); err == nil {
		t.Error("unknown workload must fail")
	}
}

// TestRunTelemetryCoversAcceptanceFamilies runs a short sim with a live
// registry and checks the Prometheus exposition covers every family the
// acceptance criteria name — live ones non-zero, analyzer-plane ones
// present at zero.
func TestRunTelemetryCoversAcceptanceFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	if err := run("hadoop", 0.15, 1, 7, 4, 1, t.TempDir(), 0, false, reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, fam := range []string{
		"umon_host_samples_total",
		"umon_netsim_events_total",
		"umon_decode_cold_total",
		"umon_decode_cache_hits_total",
		"umon_analyzer_reports_visited_total",
		"umon_analyzer_reports_skipped_total",
		"umon_stage_wall_ns",
	} {
		if !strings.Contains(out, fam) {
			t.Errorf("exposition missing family %s", fam)
		}
	}
	if reg.Value("umon_netsim_events_total") == 0 {
		t.Error("netsim events counter not live")
	}
	if reg.Value(`umon_host_samples_total{host="0"}`) == 0 {
		t.Error("per-host samples counter not live")
	}
	if strings.Contains(out, "umon_ingest_") {
		t.Error("exposition still carries the sharded-ingest families")
	}
}

// readReports decodes dir's reports.umstream into encoded payloads keyed by
// "host/epoch" — frame order and the FrameStamp wall times left out, which
// are what legitimately differs between two runs of one simulation.
func readReports(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, "reports.umstream"))
	if err != nil {
		t.Fatal(err)
	}
	reports, bad, err := report.ReadStream(bytes.NewReader(raw))
	if err != nil || bad != 0 {
		t.Fatalf("stream decode: %v (bad %d)", err, bad)
	}
	idx, err := report.ReadIndex(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != len(reports) {
		t.Errorf("index has %d entries for %d frames", len(idx), len(reports))
	}
	out := make(map[string][]byte, len(reports))
	for _, er := range reports {
		k := fmt.Sprintf("%d/%d", er.Report.Host, er.Epoch)
		if _, dup := out[k]; dup {
			t.Errorf("(host/epoch) %s framed twice", k)
		}
		out[k] = er.Report.AppendEncode(nil)
	}
	return out
}

// TestRunShardedMatchesSerialArtifacts runs the same short simulation with
// the serial engine and with 3 shards: the report payloads must be
// byte-identical per (host, epoch) (each host's egress stream is identical
// at any shard count; the shared sink interleaves hosts as they seal), the
// mirror record multiset must match, and -trace-pcap must be refused under
// sharding.
func TestRunShardedMatchesSerialArtifacts(t *testing.T) {
	serialDir, shardDir := t.TempDir(), t.TempDir()
	if err := run("hadoop", 0.15, 2, 7, 4, 1, serialDir, 1, false, nil); err != nil {
		t.Fatal(err)
	}
	if err := run("hadoop", 0.15, 2, 7, 4, 3, shardDir, 1, false, nil); err != nil {
		t.Fatal(err)
	}

	want, got := readReports(t, serialDir), readReports(t, shardDir)
	// 16 fat-tree hosts × (-ms 2 split into 1 ms epochs + final partial).
	if len(want) < 32 {
		t.Fatalf("serial run framed %d epoch reports, want >= 32", len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("report count differs: serial %d, sharded %d", len(want), len(got))
	}
	for k, w := range want {
		if g, ok := got[k]; !ok {
			t.Errorf("sharded run missing report (host/epoch) %s", k)
		} else if !bytes.Equal(w, g) {
			t.Errorf("report (host/epoch) %s differs between serial and sharded run", k)
		}
	}

	// Mirrors: identical record multiset (the sharded writer orders by
	// (time, switch, port); the serial one streams in dispatch order, which
	// may interleave switches differently inside one nanosecond).
	readSorted := func(dir string) []string {
		f, err := os.Open(filepath.Join(dir, "mirrors.pcap"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		rd, err := pcapio.NewReader(f)
		if err != nil {
			t.Fatal(err)
		}
		pkts, err := rd.ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(pkts))
		for i, p := range pkts {
			out[i] = string(p.Data)
		}
		sort.Strings(out)
		return out
	}
	serialRecs, shardRecs := readSorted(serialDir), readSorted(shardDir)
	if len(serialRecs) == 0 {
		t.Fatal("serial run mirrored no packets")
	}
	if len(serialRecs) != len(shardRecs) {
		t.Fatalf("mirror count differs: serial %d, sharded %d", len(serialRecs), len(shardRecs))
	}
	for i := range serialRecs {
		if serialRecs[i] != shardRecs[i] {
			t.Fatalf("mirror record %d differs between serial and sharded run", i)
		}
	}

	if err := run("hadoop", 0.15, 1, 7, 4, 2, t.TempDir(), 0, true, nil); err == nil {
		t.Error("-trace-pcap with shards > 1 must be refused")
	}
}

// TestRunStreamMode: host reports land in one framed reports.umstream —
// decodable, indexed, one frame per (host, epoch) — and nowhere else.
func TestRunStreamMode(t *testing.T) {
	dir := t.TempDir()
	if err := run("hadoop", 0.15, 2, 7, 4, 1, dir, 1, false, nil); err != nil {
		t.Fatal(err)
	}
	// 16 fat-tree hosts × (-ms 2 split into 1 ms epochs + final partial).
	if reports := readReports(t, dir); len(reports) < 32 {
		t.Fatalf("streamed %d epoch reports, want >= 32", len(reports))
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "reports.umstream" && e.Name() != "mirrors.pcap" {
			t.Errorf("unexpected artifact %s", e.Name())
		}
	}
}
