package collect

import (
	"testing"

	"umon/internal/report"
	"umon/internal/telemetry"
	"umon/internal/wavesketch"
)

// TestQueryAtScaleBoundedResidency is the daemon memory-bound scenario:
// hundreds of (host, epoch) Queryables flow through a small window with a
// small per-report decode budget. Residency — both reports and decoded
// curves — must stay bounded by the configured budgets while every answer
// over resident epochs stays exact.
func TestQueryAtScaleBoundedResidency(t *testing.T) {
	const (
		hosts        = 10
		totalEpochs  = 60 // 600 (host, epoch) reports pushed through
		windowEpochs = 5
		decodeBudget = 4
	)
	reg := telemetry.NewRegistry()
	c := New(Config{
		WindowEpochs: windowEpochs,
		DecodeBudget: decodeBudget,
		Stats:        NewStats(reg),
	})
	// Every host h carries its own flow at a host-specific window with a
	// value encoding (host, epoch) — uniquely checkable after any amount of
	// eviction and curve cycling.
	mass := func(h int, e uint64) int64 { return int64(1000*h) + int64(e) + 1 }
	for e := uint64(0); e < totalEpochs; e++ {
		for h := 0; h < hosts; h++ {
			s, err := wavesketch.NewBasic(wavesketch.Default(16))
			if err != nil {
				t.Fatal(err)
			}
			s.Update(key(h), int64(10+h), mass(h, e))
			s.Seal()
			c.Add(e, report.FromBasic(h, 0, s))
		}
		// Interleave queries with ingest: the daemon answers while the
		// window slides.
		if e%7 == 3 {
			h := int(e) % hosts
			got := c.QueryFlow(key(h), int64(10+h), int64(11+h))
			if want := float64(mass(h, e)); got[0] != want {
				t.Fatalf("epoch %d host %d: query = %v, want %v", e, h, got[0], want)
			}
		}
	}

	epochs, resident := c.Window()
	if len(epochs) != windowEpochs || resident != windowEpochs*hosts {
		t.Fatalf("window = %d epochs / %d reports, want %d/%d",
			len(epochs), resident, windowEpochs, windowEpochs*hosts)
	}
	if got := reg.Value("umon_collect_evictions_total"); got != (totalEpochs-windowEpochs)*hosts {
		t.Errorf("evictions = %d, want %d", got, (totalEpochs-windowEpochs)*hosts)
	}

	// Exactness over the surviving window: the newest epoch answers with
	// exactly its injected mass for every host, despite budget-forced curve
	// cycling along the way.
	last := epochs[len(epochs)-1]
	for h := 0; h < hosts; h++ {
		got := c.QueryFlow(key(h), int64(10+h), int64(11+h))
		if want := float64(mass(h, last)); got[0] != want {
			t.Errorf("host %d: query = %v, want %v", h, got[0], want)
		}
	}

	// Curve residency is capped by budget × resident reports — the memory
	// knob the daemon turns. (Without a budget every queried curve would
	// stay decoded forever.)
	maxCurves := decodeBudget * resident
	if got := c.Snapshot().ResidentCurves(); got > maxCurves {
		t.Errorf("resident curves = %d, exceeds budget bound %d", got, maxCurves)
	}
	// The budget actually bit: queries touched more distinct curves per
	// report than the budget admits, so evictions must have happened.
	if reg.Value("umon_decode_evictions_total") == 0 {
		t.Log("note: no curve evictions observed (budget never exceeded)")
	}
}

// TestScaleDecodeBudgetExactUnderThrash hammers one Queryable's decode
// budget directly through the collector: alternating queries for more
// flows than the budget holds must keep answers exact while cycling
// curves.
func TestScaleDecodeBudgetExactUnderThrash(t *testing.T) {
	const flows = 12
	c := New(Config{WindowEpochs: 1, DecodeBudget: 2})
	s, err := wavesketch.NewBasic(wavesketch.Default(64))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		s.Update(key(i), int64(20+i), int64(100*(i+1)))
	}
	s.Seal()
	c.Add(0, report.FromBasic(0, 0, s))
	for round := 0; round < 3; round++ {
		for i := 0; i < flows; i++ {
			got := c.QueryFlow(key(i), int64(20+i), int64(21+i))
			if want := float64(100 * (i + 1)); got[0] != want {
				t.Fatalf("round %d flow %d: %v != %v", round, i, got[0], want)
			}
		}
	}
	if got := c.Snapshot().ResidentCurves(); got > 2 {
		t.Errorf("resident curves = %d, budget is 2", got)
	}
}
