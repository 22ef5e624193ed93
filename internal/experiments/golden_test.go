package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"umon/internal/telemetry"
)

// Regenerate every golden after an intentional output change with:
//
//	UMON_UPDATE_GOLDEN=1 go test ./internal/experiments -run 'TestGolden|TestAllExperimentsRun'
var updateGolden = os.Getenv("UMON_UPDATE_GOLDEN") != ""

// checkGolden compares a rendered table byte for byte against the golden
// file at path, or rewrites the file under UMON_UPDATE_GOLDEN.
func checkGolden(t *testing.T, path string, tab *Table) {
	t.Helper()
	var buf bytes.Buffer
	tab.Fprint(&buf)
	if updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with UMON_UPDATE_GOLDEN=1)", tab.ID, err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("%s diverged from %s (regenerate with UMON_UPDATE_GOLDEN=1 if intentional)\n--- got ---\n%s--- want ---\n%s",
			tab.ID, path, buf.String(), string(want))
	}
}

// TestAllExperimentsRun executes every registered experiment at the scaled
// test duration (2 ms, seed 42) and compares each table byte for byte
// against testdata/2ms/<id>.golden. Every table is pinned, not only the
// accuracy figures: a change that moves any row of any experiment fails
// here, and so does registry drift (an id without a working function or a
// golden, or a golden whose id is gone). The tables are identical at any
// GOMAXPROCS, and the whole registry takes about two seconds at this scale.
func TestAllExperimentsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full registry")
	}
	r := NewRunner(cacheFor(t))
	dir := filepath.Join("testdata", "2ms")
	ids := map[string]bool{}
	for _, e := range All() {
		ids[e.ID] = true
		tab, err := r.Run(e.ID)
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		if tab.ID != e.ID {
			t.Errorf("experiment %s reports id %s", e.ID, tab.ID)
		}
		if len(tab.Header) == 0 {
			t.Errorf("%s has no header", e.ID)
		}
		checkGolden(t, filepath.Join(dir, e.ID+".golden"), tab)
	}
	goldens, err := filepath.Glob(filepath.Join(dir, "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range goldens {
		if id := strings.TrimSuffix(filepath.Base(g), ".golden"); !ids[id] {
			t.Errorf("%s pins %q, which is no registered experiment: delete it", g, id)
		}
	}
}

// TestGoldenAccuracyTables regenerates fig10/fig11/fig12 at the paper's
// default scale (20 ms, seed 42) and compares them byte-for-byte against
// the committed goldens in testdata/. The run has telemetry ENABLED: the
// goldens were generated with telemetry off, so a byte-identical result
// proves in one run that instrumentation perturbs nothing — disabled and
// enabled configurations both reproduce the committed tables.
//
// Full-scale simulation (~15 s for the three shared sims); skipped under
// -short.
func TestGoldenAccuracyTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale golden run skipped in -short mode")
	}
	reg := telemetry.NewRegistry()
	cache := NewCache(Options{Telemetry: reg})
	runner := NewRunner(cache)
	for _, id := range []string{"fig10", "fig11", "fig12"} {
		tab, err := runner.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkGolden(t, filepath.Join("testdata", id+".golden"), tab)
	}
	// Prove telemetry was live for the run, not silently disabled.
	if reg.Value("umon_netsim_events_total") == 0 {
		t.Error("telemetry registry saw no simulator events — instrumentation not wired")
	}
	if reg.Value("umon_netsim_pktfree_hits_total") == 0 {
		t.Error("free-list hit counter not live")
	}
}
