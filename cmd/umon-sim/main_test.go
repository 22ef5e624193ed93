package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"umon/internal/pcapio"
	"umon/internal/report"
	"umon/internal/telemetry"
)

func TestRunProducesArtifacts(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "hadoop", 0.15, 2, 7, 4, dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Mirror pcap exists and parses.
	f, err := os.Open(filepath.Join(dir, "mirrors.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := pcapio.NewReaderOpts(f, pcapio.ReaderOpts{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	var batch pcapio.Batch
	pkts := 0
	for err = nil; err != io.EOF; {
		var n int
		if n, err = rd.ReadBatch(&batch, 0); err != nil && err != io.EOF {
			t.Fatal(err)
		}
		pkts += n
	}
	if pkts == 0 {
		t.Error("no mirrored packets captured")
	}
	// Reports exist: every fat-tree host sealed at least one.
	if reports := readReports(t, dir); len(reports) < 16 {
		t.Errorf("%d reports in reports.umstream, want at least one per host (16)", len(reports))
	}
}

func TestRunRejectsUnknownWorkload(t *testing.T) {
	if err := run(io.Discard, "netflix", 0.15, 1, 7, 4, t.TempDir(), 0, nil); err == nil {
		t.Error("unknown workload must fail")
	}
}

// TestRunTelemetryCoversAcceptanceFamilies runs a short sim with a live
// registry and checks the Prometheus exposition covers every family the
// simulator drives, live, and none that only a collector or an analyzer
// could move: umon-sim runs neither.
func TestRunTelemetryCoversAcceptanceFamilies(t *testing.T) {
	reg := telemetry.NewRegistry()
	if err := run(io.Discard, "hadoop", 0.15, 1, 7, 4, t.TempDir(), 0, reg); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, fam := range []string{
		"umon_host_samples_total",
		"umon_netsim_events_total",
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
	for _, gone := range []string{"umon_ingest_", "umon_analyzer_", "umon_decode_"} {
		if strings.Contains(out, gone) {
			t.Errorf("exposition carries %s* families, which nothing in umon-sim moves", gone)
		}
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
	sr, err := report.NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	var fr report.Frame
	for {
		if err := sr.Next(&fr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if fr.Type != report.FrameReport {
			continue
		}
		rep, err := report.DecodeBytes(fr.Payload)
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		k := fmt.Sprintf("%d/%d", rep.Host, fr.Epoch)
		if _, dup := out[k]; dup {
			t.Errorf("(host/epoch) %s framed twice", k)
		}
		out[k] = rep.AppendEncode(nil)
	}
	return out
}

// The artifacts of `hadoop, -ms 1, -seed 7, -sample-bits 4`, taken from the
// files the commit before core.Wire wrote at -shards 3: SHA-256 of
// mirrors.pcap, and of every report frame's payload in (host, epoch) order,
// each behind its host, epoch and length as three little-endian u64s. The
// summary's workload and events lines of the same run are pinned as the
// commit that still recorded the trace printed them from its logs.
const (
	pinnedMirrorsSHA = "edfec7b73e700cd5ea4c129a67a8930495580fd0f39b4733b5df349900227afd"
	pinnedReportsSHA = "099519ffccf7a57461599e4363d5fd8c049a47f734a0b9bb376b91eeb32f2035"
	pinnedSummary    = "workload      FacebookHadoop 15% load, 262 flows, 19471 packets\n" +
		"events        13 ground-truth episodes, 4830 CE observations\n"
)

// artifactDigests hashes dir's mirrors.pcap and report payloads as the
// pinned digests above were taken. Frame order and the FrameStamp wall
// times, which legitimately differ between two runs, stay out of it.
func artifactDigests(t *testing.T, dir string) (mirrors, reports string) {
	t.Helper()
	pcap, err := os.ReadFile(filepath.Join(dir, "mirrors.pcap"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "reports.umstream"))
	if err != nil {
		t.Fatal(err)
	}
	sr, err := report.NewStreamReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	type frame struct {
		host, epoch uint64
		payload     []byte
	}
	var frames []frame
	var fr report.Frame
	for {
		if err := sr.Next(&fr); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if fr.Type == report.FrameReport {
			frames = append(frames, frame{uint64(fr.Host), fr.Epoch, append([]byte(nil), fr.Payload...)})
		}
	}
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].host != frames[j].host {
			return frames[i].host < frames[j].host
		}
		return frames[i].epoch < frames[j].epoch
	})
	h := sha256.New()
	for _, f := range frames {
		var hdr [24]byte
		binary.LittleEndian.PutUint64(hdr[0:], f.host)
		binary.LittleEndian.PutUint64(hdr[8:], f.epoch)
		binary.LittleEndian.PutUint64(hdr[16:], uint64(len(f.payload)))
		h.Write(hdr[:])
		h.Write(f.payload)
	}
	sum := sha256.Sum256(pcap)
	return hex.EncodeToString(sum[:]), hex.EncodeToString(h.Sum(nil))
}

// TestRunMatchesPinnedArtifacts runs a short simulation and requires the
// pinned bytes: mirrors.pcap whole (the mirrors are written in (time,
// switch, port) order as the switches emit them), every (host, epoch)
// report payload (the shared sink interleaves hosts as they seal), and the
// summary's packet and CE counts, which the taps count without a recorded
// trace.
func TestRunMatchesPinnedArtifacts(t *testing.T) {
	dir := t.TempDir()
	var out strings.Builder
	if err := run(&out, "hadoop", 0.15, 1, 7, 4, dir, 0, nil); err != nil {
		t.Fatal(err)
	}
	mirrors, reports := artifactDigests(t, dir)
	if mirrors != pinnedMirrorsSHA {
		t.Errorf("mirrors.pcap hashes to %s, pinned %s", mirrors, pinnedMirrorsSHA)
	}
	if reports != pinnedReportsSHA {
		t.Errorf("report payloads hash to %s, pinned %s", reports, pinnedReportsSHA)
	}
	if !strings.HasPrefix(out.String(), pinnedSummary) {
		t.Errorf("summary starts\n%s\npinned\n%s", out.String(), pinnedSummary)
	}
}

// TestRunStreamMode: host reports land in one framed reports.umstream —
// decodable, one frame per (host, epoch) — and nowhere else.
func TestRunStreamMode(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "hadoop", 0.15, 2, 7, 4, dir, 1, nil); err != nil {
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
