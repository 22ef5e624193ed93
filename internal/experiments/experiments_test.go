package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/netsim"
)

// testCache builds a shared scaled-down cache (2 ms traces) so the whole
// experiment suite stays fast under `go test`.
var sharedCache *Cache

func cacheFor(t *testing.T) *Cache {
	t.Helper()
	if sharedCache == nil {
		sharedCache = NewCache(Options{DurationNs: 2_000_000, Seed: 42})
	}
	return sharedCache
}

func findRows(t *Table, match func([]string) bool) [][]string {
	var out [][]string
	for _, r := range t.Rows {
		if match(r) {
			out = append(out, r)
		}
	}
	return out
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestOptionsFilled(t *testing.T) {
	o := Options{}.filled()
	if o.DurationNs != 20_000_000 || o.Seed == 0 {
		t.Errorf("defaults = %+v", o)
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := cacheFor(t)
	a, err := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Sim(SimKey{"FacebookHadoop", 0.15})
	if a != b {
		t.Error("cache must return the same simulation object")
	}
	if _, err := c.Sim(SimKey{"NoSuch", 0.15}); err == nil {
		t.Error("unknown workload must fail")
	}
	if a.Truth.Len() == 0 || a.Trace.TotalPackets() == 0 {
		t.Error("simulation produced no traffic")
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{ID: "x", Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("hello %d", 7)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== x: T ==", "a  bb", "1  2", "note: hello 7"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestRunnerRegistry(t *testing.T) {
	r := NewRunner(cacheFor(t))
	if _, err := r.Run("nope"); err == nil {
		t.Error("unknown id must fail")
	}
	if len(IDs()) != len(All()) {
		t.Error("IDs/All mismatch")
	}
	// fig5 and table1 are simulation-free: run them through the registry.
	for _, id := range []string{"fig5", "table1"} {
		tab, err := r.Run(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
	}
}

func TestFig5MatchesPaper(t *testing.T) {
	tab, err := Fig05WaveletExample(nil)
	if err != nil {
		t.Fatal(err)
	}
	var rec string
	for _, r := range tab.Rows {
		if r[0] == "top-4 reconstruction" {
			rec = r[1]
		}
	}
	if rec != "[8 8 6 3 3 3 5 5]" {
		t.Errorf("reconstruction = %s, want the paper's [8 8 6 3 3 3 5 5]", rec)
	}
}

func TestTable1MatchesPaper(t *testing.T) {
	tab, err := Table1HardwareResources(nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Stateful ALU": "49",
		"SRAM":         "134",
		"VLIW Instr":   "75",
	}
	for _, r := range tab.Rows {
		if w, ok := want[r[0]]; ok && r[1] != w {
			t.Errorf("%s = %s, want %s", r[0], r[1], w)
		}
	}
}

func TestFig3Shape(t *testing.T) {
	tab, err := Fig03CounterIncrease(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	get := func(wl, load string) float64 {
		rows := findRows(tab, func(r []string) bool { return r[0] == wl && r[1] == load })
		if len(rows) != 1 {
			t.Fatalf("missing row %s/%s", wl, load)
		}
		return parseF(t, rows[0][2])
	}
	if ws, hd := get("WebSearch", "35%"), get("FacebookHadoop", "35%"); ws <= hd {
		t.Errorf("WebSearch factor %v must exceed Hadoop %v", ws, hd)
	}
	if lo, hi := get("WebSearch", "5%"), get("WebSearch", "45%"); hi <= lo {
		t.Errorf("factor must grow with load: %v vs %v", lo, hi)
	}
}

func TestFig11Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy sweep")
	}
	tab, err := Fig11AccuracyHadoop15(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	// At the smallest memory, WaveSketch-Ideal must beat every baseline on
	// ARE and cosine similarity.
	rows := findRows(tab, func(r []string) bool { return r[0] == "200" })
	if len(rows) != len(schemeNames) {
		t.Fatalf("got %d rows for 200KB, want %d", len(rows), len(schemeNames))
	}
	vals := map[string][2]float64{}
	for _, r := range rows {
		vals[r[1]] = [2]float64{parseF(t, r[3]), parseF(t, r[4])} // ARE, cosine
	}
	ws := vals["WaveSketch-Ideal"]
	for _, base := range []string{"Fourier", "OmniWindow-Avg", "Persist-CMS"} {
		b := vals[base]
		if ws[0] >= b[0] {
			t.Errorf("ARE: WaveSketch %v not better than %s %v", ws[0], base, b[0])
		}
		if ws[1] <= b[1] {
			t.Errorf("cosine: WaveSketch %v not better than %s %v", ws[1], base, b[1])
		}
	}
	// Hardware variant tracks ideal within a factor.
	hw := vals["WaveSketch-HW"]
	if hw[0] > ws[0]*4+0.05 {
		t.Errorf("HW ARE %v too far from ideal %v", hw[0], ws[0])
	}
}

func TestFig14Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("event sweep")
	}
	tab, err := Fig14EventRecall(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no recall rows")
	}
	// Full sampling must reach high recall above KMax on every workload.
	for _, note := range tab.Notes {
		if strings.Contains(note, "p=1/1") && strings.Contains(note, "recall above KMax") {
			parts := strings.Split(note, "= ")
			v := parseF(t, strings.TrimSpace(parts[len(parts)-1]))
			if v < 0.95 {
				t.Errorf("full-sampling recall above KMax = %v (%s)", v, note)
			}
		}
	}
}

func TestFig15Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("event sweep")
	}
	tab, err := Fig15MirrorBandwidth(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, note := range tab.Notes {
		if strings.Contains(note, "WARNING") {
			t.Errorf("monotonicity violated: %s", note)
		}
	}
	// Sampling 1/64 must cut bandwidth by ≥ 30x vs full for each config.
	byConfig := map[string]map[string]float64{}
	for _, r := range tab.Rows {
		if byConfig[r[0]] == nil {
			byConfig[r[0]] = map[string]float64{}
		}
		byConfig[r[0]][r[1]] = parseF(t, r[2])
	}
	for cfg, m := range byConfig {
		if full, s64 := m["p=1/1"], m["p=1/64"]; full > 0 && s64 > full/30 {
			t.Errorf("%s: 1/64 sampling bandwidth %v vs full %v — reduction too small", cfg, s64, full)
		}
	}
}

func TestFig10Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	tab, err := Fig10EventReplay(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	rows := findRows(tab, func(r []string) bool { return r[0] == "detected events" })
	if len(rows) != 1 || parseF(t, rows[0][1]) == 0 {
		t.Error("no events detected in the Fig 10 pipeline")
	}
}

func TestFig16Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("needs 4 sims")
	}
	tab, err := Fig16WorkloadInfo(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	// CDFs must be monotone in x per series.
	series := map[string][]float64{}
	for _, r := range tab.Rows {
		series[r[0]] = append(series[r[0]], parseF(t, r[2]))
	}
	for name, vals := range series {
		for i := 1; i < len(vals); i++ {
			if vals[i] < vals[i-1]-1e-9 {
				t.Errorf("%s CDF not monotone: %v", name, vals)
			}
		}
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("needs 6 sims")
	}
	tab, err := Table2Workloads(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tab.Rows))
	}
	flows := func(wl, load string) float64 {
		rows := findRows(tab, func(r []string) bool { return r[0] == wl && r[1] == load })
		return parseF(t, rows[0][3])
	}
	if flows("FacebookHadoop", "15%") <= flows("WebSearch", "15%")*3 {
		t.Error("Hadoop must have many times more flows than WebSearch at equal load")
	}
	if flows("WebSearch", "35%") <= flows("WebSearch", "15%") {
		t.Error("flow count must grow with load")
	}
}

func TestSec71Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("needs sim")
	}
	tab, err := Sec71HostBandwidth(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 16 {
		t.Fatalf("rows = %d, want one per host", len(tab.Rows))
	}
	for _, r := range tab.Rows {
		rep, mir := parseF(t, r[2]), parseF(t, r[3])
		if mir > 0 && rep >= mir {
			t.Errorf("%s: report bandwidth %v not below per-packet mirroring %v", r[0], rep, mir)
		}
	}
}

func TestFig1And9And13Run(t *testing.T) {
	if testing.Short() {
		t.Skip("dumbbell sims")
	}
	for _, fn := range []ExperimentFunc{Fig01Granularity, Fig09FlowBehaviors, Fig13Reconstruction} {
		tab, err := fn(cacheFor(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
	}
}

func TestFig13WaveSketchBeatsOmniWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("dumbbell sim")
	}
	tab, err := Fig13Reconstruction(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	// The cosine note carries both numbers.
	var note string
	for _, n := range tab.Notes {
		if strings.Contains(n, "cosine") {
			note = n
		}
	}
	if note == "" {
		t.Fatal("missing cosine note")
	}
	// Note shape: "... cosine X vs Y; euclidean A vs B (WaveSketch vs OmniWindow)".
	var got []float64
	for _, f := range strings.Fields(note) {
		if v, err := strconv.ParseFloat(strings.TrimSuffix(f, ";"), 64); err == nil {
			got = append(got, v)
		}
	}
	if len(got) < 5 {
		t.Fatalf("cannot parse note %q", note)
	}
	wsCos, owCos := got[len(got)-4], got[len(got)-3]
	wsL2, owL2 := got[len(got)-2], got[len(got)-1]
	if wsCos < owCos {
		t.Errorf("WaveSketch cosine %v must not lose to OmniWindow %v", wsCos, owCos)
	}
	if wsL2 >= owL2 {
		t.Errorf("WaveSketch euclidean %v must beat OmniWindow %v", wsL2, owL2)
	}
}

func TestSrcHostDecoding(t *testing.T) {
	for h := 0; h < 16; h++ {
		k := flowkey.Key{SrcIP: netsim.HostIP(h)}
		if got := srcHostOf(k); got != h {
			t.Errorf("srcHostOf(HostIP(%d)) = %d", h, got)
		}
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("needs sim")
	}
	for _, fn := range []ExperimentFunc{AblationSelection, AblationDepth, AblationRows, AblationHeavy} {
		tab, err := fn(cacheFor(t))
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("%s produced no rows", tab.ID)
		}
	}
}

func TestAblationSelectionL2Optimality(t *testing.T) {
	if testing.Short() {
		t.Skip("needs sim")
	}
	tab, err := AblationSelection(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	// Appendix A: the weighted rule never loses on L2.
	for _, r := range tab.Rows {
		w, u := parseF(t, r[1]), parseF(t, r[2])
		if w > u*1.0001 {
			t.Errorf("K=%s: weighted L2 %v worse than unweighted %v", r[0], w, u)
		}
	}
}

func TestAblationDepthCompression(t *testing.T) {
	if testing.Short() {
		t.Skip("needs sim")
	}
	tab, err := AblationDepth(cacheFor(t))
	if err != nil {
		t.Fatal(err)
	}
	// Report bytes at L=8 must be well below L=2 (the whole point of
	// deeper decomposition).
	first := parseF(t, tab.Rows[0][1])
	var l8 float64
	for _, r := range tab.Rows {
		if r[0] == "8" {
			l8 = parseF(t, r[1])
		}
	}
	// At the scaled-down test duration flows are short, so deep
	// decomposition saves little; it must never cost much, and the
	// full-scale benches show the real 3x saving.
	if l8 > first*1.1 {
		t.Errorf("L=8 report bytes %v ≫ L=2's %v", l8, first)
	}
}

func TestExtensionsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("incast sims")
	}
	loss, err := ExtLossForensics(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Attribution at full sampling must be near-total. Not exactly 1: the
	// incast's *first* drop burst arrives ~1 µs after the queue crosses
	// KMax, so its lookback window only holds mirrors from the 20–200 KB
	// RED band where marking probability is 0.01 — whether that burst is
	// attributed comes down to a couple of random draws (seed-sensitive).
	// Steady-state drops always sit behind a fully-marked queue.
	if got := parseF(t, loss.Rows[0][3]); got < 0.9 {
		t.Errorf("full-sampling attribution = %v", got)
	}
	// And must not increase as sampling gets sparser.
	prev := 2.0
	for _, r := range loss.Rows {
		v := parseF(t, r[3])
		if v > prev+1e-9 {
			t.Errorf("attribution rose with sparser sampling: %v", loss.Rows)
		}
		prev = v
	}
}
