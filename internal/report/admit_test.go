package report_test

import (
	"bytes"
	"testing"

	"umon/internal/analyzer"
	"umon/internal/collect"
	"umon/internal/report"
)

// TestAdmissionRefusesWhatTheIndexCannotRoute feeds the reports a routed
// set must not hold through every path into one: Collector.AddStamped,
// AddEncoded and IngestStream, and Analyzer.AddReport. A report with a
// heavy key whose light bucket is missing is refused as the first of its
// epoch; a report of another sketch is refused beside one of the epoch's
// sketch. Each call returns an error, or IngestStream counts the frame bad,
// and the collector publishes nothing. Every report a sketch made is
// admitted by each path.
func TestAdmissionRefusesWhatTheIndexCannotRoute(t *testing.T) {
	sketched := report.SketchReports(t)
	fleet, table1 := sketched["fleet3x1024"], sketched["table1"]
	if fleet[0].Meta == table1[0].Meta {
		t.Fatal("the fleet and Table 1 sketches share a geometry: fixture is off")
	}
	stream := func(host int, payload []byte) *bytes.Buffer {
		var buf bytes.Buffer
		sw, err := report.NewStreamWriter(&buf)
		if err == nil {
			err = sw.WriteEncoded(0, host, payload)
		}
		if err != nil {
			t.Fatal(err)
		}
		return &buf
	}
	refuse := func(name string, first, r *report.HostReport) {
		t.Helper()
		c, a := collect.New(collect.Config{}), analyzer.New()
		if first != nil {
			if c.Add(0, first) != nil || a.AddReport(first) != nil {
				t.Fatalf("%s: the epoch's first report was refused", name)
			}
		}
		v := c.Status().SnapshotVersion
		payload := r.AppendEncode(nil)
		if err := c.AddStamped(0, r, report.EpochStamp{}); err == nil {
			t.Errorf("%s: AddStamped admitted it", name)
		}
		if err := c.AddEncoded(0, payload); err == nil {
			t.Errorf("%s: AddEncoded admitted it", name)
		}
		if n, bad, err := c.IngestStream(stream(r.Host, payload)); n != 0 || bad != 1 || err != nil {
			t.Errorf("%s: IngestStream admitted %d, %d bad (err %v); want 0, 1 bad", name, n, bad, err)
		}
		if got := c.Status().SnapshotVersion; got != v {
			t.Errorf("%s: refusals moved the snapshot version %d → %d", name, v, got)
		}
		if err := a.AddReport(r); err == nil {
			t.Errorf("%s: Analyzer.AddReport admitted it", name)
		}
	}
	orphaned := report.OrphanReports(t)
	if len(orphaned) != 3 {
		t.Fatalf("%d orphan fixtures, want 3", len(orphaned))
	}
	for name, r := range orphaned {
		refuse(name, nil, r)
	}
	refuse("Table 1 report in a fleet epoch", fleet[0], table1[1])
	refuse("fleet report in a Table 1 epoch", table1[0], fleet[1])

	for name, reps := range sketched {
		c, a := collect.New(collect.Config{}), analyzer.New()
		for _, r := range reps {
			payload := r.AppendEncode(nil)
			if err := c.AddStamped(0, r, report.EpochStamp{}); err != nil {
				t.Errorf("%s host %d: AddStamped: %v", name, r.Host, err)
			}
			if err := c.AddEncoded(1, payload); err != nil {
				t.Errorf("%s host %d: AddEncoded: %v", name, r.Host, err)
			}
			if n, bad, err := c.IngestStream(stream(r.Host, payload)); n != 1 || bad != 0 || err != nil {
				t.Errorf("%s host %d: IngestStream admitted %d, %d bad (err %v)", name, r.Host, n, bad, err)
			}
			if err := a.AddReport(r); err != nil {
				t.Errorf("%s host %d: Analyzer.AddReport: %v", name, r.Host, err)
			}
		}
		if _, resident := c.Snapshot().Window(); resident != 2*len(reps) {
			t.Errorf("%s: %d reports resident, want %d", name, resident, 2*len(reps))
		}
	}
}
