package main

import (
	"os"
	"path/filepath"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const baseline = `{"unit":"median over runs","benchmarks":[
  {"name":"PcapReadBatch","runs":5,"iterations":1,"ns_per_op":100.0},
  {"name":"DecodeMirrorInto","runs":5,"iterations":1,"ns_per_op":50.0},
  {"name":"MirrorIngestE2E","runs":5,"iterations":1,"ns_per_op":1000.0}]}`

func TestGatePassesWithinThreshold(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseline)
	fresh := writeReport(t, dir, "new.json", `{"benchmarks":[
	  {"name":"PcapReadBatch","ns_per_op":110.0},
	  {"name":"DecodeMirrorInto","ns_per_op":40.0},
	  {"name":"MirrorIngestE2E","ns_per_op":1200.0}]}`)
	if code := gate([]string{"-old", old, "-new", fresh, "-threshold", "25"}, os.Stdout); code != 0 {
		t.Fatalf("gate = %d, want 0 (10%% and 20%% regressions under 25%%)", code)
	}
}

func TestGateFailsOnRegression(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseline)
	fresh := writeReport(t, dir, "new.json", `{"benchmarks":[
	  {"name":"PcapReadBatch","ns_per_op":126.0},
	  {"name":"DecodeMirrorInto","ns_per_op":50.0},
	  {"name":"MirrorIngestE2E","ns_per_op":1000.0}]}`)
	if code := gate([]string{"-old", old, "-new", fresh, "-threshold", "25"}, os.Stdout); code != 1 {
		t.Fatalf("gate = %d, want 1 (26%% regression)", code)
	}
}

func TestGateFailsOnMissingBenchmark(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseline)
	fresh := writeReport(t, dir, "new.json", `{"benchmarks":[
	  {"name":"PcapReadBatch","ns_per_op":100.0}]}`)
	if code := gate([]string{"-old", old, "-new", fresh}, os.Stdout); code != 1 {
		t.Fatalf("gate = %d, want 1 (baseline benchmarks missing from fresh run)", code)
	}
}

func TestGateBenchFilter(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", baseline)
	// Only Pcap* is gated; the huge Mirror regression is out of scope.
	fresh := writeReport(t, dir, "new.json", `{"benchmarks":[
	  {"name":"PcapReadBatch","ns_per_op":100.0},
	  {"name":"MirrorIngestE2E","ns_per_op":9999.0}]}`)
	if code := gate([]string{"-old", old, "-new", fresh, "-bench", "^Pcap"}, os.Stdout); code != 0 {
		t.Fatalf("gate = %d, want 0 (filter excludes the regression)", code)
	}
	if code := gate([]string{"-old", old, "-new", fresh, "-bench", "^Nothing"}, os.Stdout); code != 2 {
		t.Fatalf("gate = %d, want 2 (filter matches no baseline)", code)
	}
}

// TestGateBytes: -bytes gates B/op where the baseline has it, at its own
// threshold, and is off by default.
func TestGateBytes(t *testing.T) {
	dir := t.TempDir()
	old := writeReport(t, dir, "old.json", `{"benchmarks":[
	  {"name":"AdmitEpoch","ns_per_op":100.0,"bytes_per_op":1000},
	  {"name":"AppendEncode","ns_per_op":100.0,"bytes_per_op":0},
	  {"name":"KeyHash","ns_per_op":5.0}]}`)
	fresh := writeReport(t, dir, "new.json", `{"benchmarks":[
	  {"name":"AdmitEpoch","ns_per_op":90.0,"bytes_per_op":1030},
	  {"name":"AppendEncode","ns_per_op":100.0,"bytes_per_op":64},
	  {"name":"KeyHash","ns_per_op":5.0}]}`)
	if code := gate([]string{"-old", old, "-new", fresh}, os.Stdout); code != 0 {
		t.Fatalf("gate = %d, want 0 (B/op not gated without -bytes)", code)
	}
	if code := gate([]string{"-old", old, "-new", fresh, "-bytes", "5"}, os.Stdout); code != 0 {
		t.Fatalf("gate = %d, want 0 (3%% more bytes under 5%%; a zero baseline is not gated)", code)
	}
	if code := gate([]string{"-old", old, "-new", fresh, "-bytes", "2"}, os.Stdout); code != 1 {
		t.Fatalf("gate = %d, want 1 (3%% more bytes past 2%%)", code)
	}
}

func TestGateUsageErrors(t *testing.T) {
	if code := gate([]string{"-old", "only.json"}, os.Stdout); code != 2 {
		t.Fatalf("gate = %d, want 2 (missing -new)", code)
	}
	if code := gate([]string{"-old", "absent.json", "-new", "absent2.json"}, os.Stdout); code != 2 {
		t.Fatalf("gate = %d, want 2 (unreadable input)", code)
	}
}
