package collect

import (
	"bytes"
	"testing"

	"umon/internal/report"
	"umon/internal/telemetry"
)

// TestIngestStreamCountsLateApart slides a 2-epoch window past epoch 0 and
// then feeds epoch 0 again: the late report is dropped and counted as late,
// not among the reports admitted.
func TestIngestStreamCountsLateApart(t *testing.T) {
	var buf bytes.Buffer
	sw, err := report.NewStreamWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range []uint64{0, 1, 2, 3, 0} {
		if err := sw.WriteEncoded(e, 0, mkReport(0, key(0), 10, 100).AppendEncode(nil)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	c := New(Config{WindowEpochs: 2})
	n, bad, err := c.IngestStream(bytes.NewReader(buf.Bytes()))
	if err != nil || bad != 0 {
		t.Fatalf("ingest: %v (%d bad)", err, bad)
	}
	if n != 4 {
		t.Errorf("IngestStream admitted %d reports, want 4", n)
	}
	if st := c.Status(); st.LateReports != 1 || st.ReportsIngested != 4 || st.EvictedReports != 2 {
		t.Errorf("status late %d, ingested %d, evicted %d; want 1, 4, 2",
			st.LateReports, st.ReportsIngested, st.EvictedReports)
	}
}

// TestStatusReadsStats drives a collector built without Stats through
// admits, a late and a replaced report, mirrors (one late) and queries on
// the live snapshot and a held one: each count Status reports is the value
// of its Stats() handle, so the collector counts each fact once.
func TestStatusReadsStats(t *testing.T) {
	c := New(Config{WindowEpochs: 2, GapNs: 50_000})
	var held *Snapshot
	for e := uint64(0); e < 3; e++ {
		for h := 0; h < 2; h++ {
			if err := c.Add(e, mkReport(h, key(h), 10+int64(e), 100)); err != nil {
				t.Fatal(err)
			}
		}
		if e == 0 {
			held = c.Snapshot() // epoch 0's 2 reports, evicted from the live window
		}
	}
	if err := c.Add(0, mkReport(0, key(0), 10, 100)); err != nil { // late
		t.Fatal(err)
	}
	if err := c.Add(2, mkReport(1, key(1), 12, 300)); err != nil { // replaces host 1's epoch 2
		t.Fatal(err)
	}
	c.AddMirror(mirrorAt(2, 1, 1_000, key(0)))
	c.AddMirror(mirrorAt(2, 1, 2_000, key(1)))
	c.AddMirror(mirrorAt(2, 1, 200_000, key(0)))
	if c.Poll() != 1 {
		t.Fatal("expected one emitted event")
	}
	c.AddMirror(mirrorAt(2, 1, 1_500, key(0))) // below the trim horizon
	c.QueryFlow(key(0), 10, 13)
	held.QueryFlow(key(1), 10, 13)

	st, s := c.Status(), c.Stats()
	for _, f := range []struct {
		name        string
		status, set int64
		want        int64
	}{
		{"reports ingested", st.ReportsIngested, s.ReportsIngested.Value(), 7},
		{"mirrors ingested", st.MirrorsIngested, s.MirrorsIngested.Value(), 3},
		{"late reports", st.LateReports, s.LateReports.Value(), 1},
		{"late mirrors", st.LateMirrors, s.LateMirrors.Value(), 1},
		{"evicted reports", st.EvictedReports, s.Evictions.Value(), 2},
		{"reports routed", st.ReportsRouted, s.RouteVisited.Value(), -1},
		{"reports route-skipped", st.ReportsRouteSkipped, s.RouteSkipped.Value(), -1},
		{"events emitted", int64(st.EventsEmitted), s.EventsEmitted.Value(), 1},
		{"snapshot version", st.SnapshotVersion, s.SnapshotVersion.Value(), -1},
		{"resident reports", int64(st.ResidentReports), s.WindowResident.Value(), 4},
	} {
		if f.status != f.set {
			t.Errorf("%s: Status %d, Stats %d", f.name, f.status, f.set)
		}
		if f.want >= 0 && f.status != f.want {
			t.Errorf("%s = %d, want %d", f.name, f.status, f.want)
		}
	}
	// The live window holds 4 reports and the held one 2: both queries count.
	if st.ReportsRouted+st.ReportsRouteSkipped != 4+2 || st.ReportsRouted == 0 {
		t.Errorf("routed %d + skipped %d, want 6 with some routed", st.ReportsRouted, st.ReportsRouteSkipped)
	}
}

// TestStatsBelongToOneCollector builds two collectors, each on its own
// Stats, and two on private ones: what one counts, no other sees.
func TestStatsBelongToOneCollector(t *testing.T) {
	regA, regB := telemetry.NewRegistry(), telemetry.NewRegistry()
	cols := []*Collector{
		New(Config{Stats: NewStats(regA)}),
		New(Config{Stats: NewStats(regB)}),
		New(Config{}),
		New(Config{}),
	}
	for i, c := range cols {
		for e := 0; e <= i; e++ {
			if err := c.Add(uint64(e), mkReport(0, key(0), 10, 100)); err != nil {
				t.Fatal(err)
			}
		}
		c.AddMirror(mirrorAt(1, 1, int64(i+1)*1_000, key(0)))
		c.QueryFlow(key(0), 10, 11)
	}
	for i, c := range cols {
		st := c.Status()
		if st.ReportsIngested != int64(i+1) || st.MirrorsIngested != 1 || st.ReportsRouted+st.ReportsRouteSkipped != int64(i+1) {
			t.Errorf("collector %d: %d reports, %d mirrors, %d routed+skipped; want %d, 1, %d",
				i, st.ReportsIngested, st.MirrorsIngested, st.ReportsRouted+st.ReportsRouteSkipped, i+1, i+1)
		}
	}
	if regA.Value("umon_collect_reports_ingested_total") != 1 || regB.Value("umon_collect_reports_ingested_total") != 2 {
		t.Errorf("registries export %d and %d reports, want 1 and 2",
			regA.Value("umon_collect_reports_ingested_total"), regB.Value("umon_collect_reports_ingested_total"))
	}
}
