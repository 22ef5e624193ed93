package report

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/wavesketch"
)

func key(i int) flowkey.Key {
	return flowkey.Key{
		SrcIP: 0x0a000101 + uint32(i), DstIP: 0x0a000f01,
		SrcPort: uint16(30000 + i), DstPort: flowkey.RoCEPort, Proto: flowkey.ProtoUDP,
	}
}

func buildBasic(t *testing.T) *wavesketch.Basic {
	t.Helper()
	s, err := wavesketch.NewBasic(wavesketch.Default(32))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for w := int64(1000); w < 1512; w++ {
		for f := 0; f < 8; f++ {
			if rng.Intn(2) == 0 {
				s.Update(key(f), w, int64(rng.Intn(1500)+1))
			}
		}
	}
	s.Seal()
	return s
}

// sealedSlab is what FromBasic (heavy nil) and FromFull encode: a sealed
// sketch's curves as it exports them.
func sealedSlab(host int, s *wavesketch.Basic, heavy []wavesketch.HeavyExport) *slabReport {
	cfg := s.Config()
	return &slabReport{Host: host, WindowShift: measure.DefaultWindowShift,
		Meta:    SketchMeta{Rows: cfg.Rows, Width: cfg.Width, Levels: cfg.Levels, Seed: cfg.Seed},
		Buckets: s.Export(nil), Heavy: heavy}
}

// TestSealedSketchesParse is what lets the encoder take a sealed sketch's
// curves as they come, with no canonical form to fall back on: over seeded
// workloads on basic, full and hardware sketches of random shape — the full
// ones with heavy entries elected mid-flow — and of the deepest and the
// tallest shape a sketch may take, parse accepts every encoding, FromBasic
// and FromFull write it, and it reads back unchanged.
func TestSealedSketchesParse(t *testing.T) {
	elections := 0
	for seed := int64(1); seed <= 14; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cfg := wavesketch.Config{Rows: 1 + rng.Intn(4), Width: []int{1, 7, 64, 250, 1024}[rng.Intn(5)],
			Levels: 1 + rng.Intn(10), K: 1 + rng.Intn(48), Seed: rng.Uint64()}
		switch seed {
		case 13:
			cfg.Rows, cfg.Width = wavesketch.MaxRows, 1
		case 14:
			cfg.Levels, cfg.Width = wavesketch.MaxLevels, 1
		}
		start := int64(rng.Intn(1 << 20))
		calibration := make([][]int64, 4)
		for i := range calibration {
			calibration[i] = make([]int64, 512)
			for w := range calibration[i] {
				calibration[i][w] = rng.Int63n(3000)
			}
		}
		basic, err := wavesketch.NewBasic(cfg)
		if err != nil {
			t.Fatal(err)
		}
		full, err := wavesketch.NewFull(wavesketch.FullConfig{HeavyRows: 1 + rng.Intn(16), HeavySeed: rng.Uint64(), Light: cfg})
		if err != nil {
			t.Fatal(err)
		}
		hw, err := wavesketch.NewHardware(cfg, calibration)
		if err != nil {
			t.Fatal(err)
		}
		// Flows steady from the start, mice, and heavy-rate flows that start
		// late, to win a heavy slot mid-flow.
		for w := int64(0); w < 512; w++ {
			for i := 0; i < 40; i++ {
				from, every, size := int64(0), int64(1), int64(1500)
				switch i % 3 {
				case 1:
					from, every, size = int64(i*5), int64(2+i%6), 80
				case 2:
					from, size = int64(200+i*4), 3000
				}
				if w >= from && (w-from)%every == 0 {
					v := size + rng.Int63n(100)
					basic.Update(key(i), start+w, v)
					full.Update(key(i), start+w, v)
					hw.Update(key(i), start+w, v)
				}
			}
		}
		basic.Seal()
		full.Seal()
		hw.Seal()
		for _, c := range []struct {
			name   string
			rep    *HostReport
			sealed *slabReport
		}{
			{"basic", FromBasic(1, start, basic), sealedSlab(1, basic, nil)},
			{"full", FromFull(2, start, full), sealedSlab(2, full.Light(), full.ExportHeavy(nil))},
			{"hardware", FromBasic(3, start, hw), sealedSlab(3, hw, nil)},
		} {
			c.sealed.PeriodStart = start
			enc := c.sealed.encode()
			dec, err := DecodeBytes(enc)
			if err != nil {
				t.Fatalf("seed %d, %s %+v: parse refuses a sealed sketch: %v", seed, c.name, cfg, err)
			}
			if !bytes.Equal(c.rep.AppendEncode(nil), enc) {
				t.Fatalf("seed %d, %s: From* wrote other bytes", seed, c.name)
			}
			if !bytes.Equal(v1Bytes(t, slabs(dec)), v1Bytes(t, c.sealed)) {
				t.Fatalf("seed %d, %s: the sealed curves read back changed", seed, c.name)
			}
			for _, h := range c.sealed.Heavy {
				if h.W0 > start {
					elections++
				}
			}
		}
	}
	if elections == 0 {
		t.Fatal("no heavy entry was elected mid-flow")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := buildBasic(t)
	r := sealedSlab(3, s, nil)
	r.PeriodStart = 1000
	var buf bytes.Buffer
	n, err := FromBasic(3, 1000, s).Encode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("Encode reported %d bytes, wrote %d", n, buf.Len())
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got := slabs(dec)
	if got.Host != 3 || got.PeriodStart != 1000 || got.Meta != r.Meta {
		t.Errorf("header mismatch: %+v vs %+v", got, r)
	}
	if len(got.Buckets) != len(r.Buckets) {
		t.Fatalf("bucket count %d vs %d", len(got.Buckets), len(r.Buckets))
	}
	for i := range r.Buckets {
		a, b := r.Buckets[i], got.Buckets[i]
		if a.Row != b.Row || a.Index != b.Index || a.W0 != b.W0 || a.Len != b.Len {
			t.Fatalf("bucket %d header mismatch", i)
		}
		if !reflect.DeepEqual(a.Approx, b.Approx) {
			t.Fatalf("bucket %d approx mismatch", i)
		}
		if len(a.Details) != len(b.Details) {
			t.Fatalf("bucket %d detail count mismatch", i)
		}
		for j := range a.Details {
			if a.Details[j] != b.Details[j] {
				t.Fatalf("bucket %d detail %d mismatch", i, j)
			}
		}
	}
}

// TestDecodedQueriesMatchLiveSketch: a decoded basic report answers bit for
// bit what the oracle answers over the sealed sketch's own exports.
func TestDecodedQueriesMatchLiveSketch(t *testing.T) {
	s := buildBasic(t)
	live := newOracleQueryable(sealedSlab(0, s, nil))
	r := FromBasic(0, 1000, s)
	var buf bytes.Buffer
	if _, err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQueryable(t, dec)
	for f := 0; f < 8; f++ {
		want := live.QueryRange(key(f), 1000, 1512)
		remote := q.QueryRange(key(f), 1000, 1512)
		for w := range want {
			if math.Float64bits(want[w]) != math.Float64bits(remote[w]) {
				t.Fatalf("flow %d window %d: sketch %v vs decoded %v", f, w, want[w], remote[w])
			}
		}
	}
}

func TestFullReportHeavyRoundTrip(t *testing.T) {
	full, err := wavesketch.NewFull(wavesketch.DefaultFull())
	if err != nil {
		t.Fatal(err)
	}
	heavy := key(1)
	for w := int64(0); w < 400; w++ {
		full.Update(heavy, w, 1500)
		if w%7 == 0 {
			full.Update(key(2+int(w%5)), w, 80)
		}
	}
	full.Seal()
	live := newOracleQueryable(sealedSlab(9, full.Light(), full.ExportHeavy(nil)))
	r := FromFull(9, 0, full)
	elected := len(full.ExportHeavy(nil))
	if elected == 0 {
		t.Fatal("the sketch elected no heavy flow")
	}
	var buf bytes.Buffer
	if _, err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQueryable(t, dec)
	if !q.IsHeavy(heavy) {
		t.Fatal("decoded report does not know the heavy flow")
	}
	if len(q.HeavyFlows()) != elected {
		t.Errorf("heavy flows = %d, want %d", len(q.HeavyFlows()), elected)
	}
	// The heavy flow, and a mouse colliding with it that must benefit from
	// heavy subtraction in the decoded form too.
	for _, f := range []flowkey.Key{heavy, key(3)} {
		want := live.QueryRange(f, 0, 400)
		remote := q.QueryRange(f, 0, 400)
		for w := range want {
			if math.Float64bits(want[w]) != math.Float64bits(remote[w]) {
				t.Fatalf("flow %s window %d: sketch %v vs decoded %v", f, w, want[w], remote[w])
			}
		}
	}
}

func TestReportSizeTracksCompressionRatio(t *testing.T) {
	// One long flow through a 1×1 sketch: the wire size must be within a
	// small multiple of the analytic (n/2^L + αK) curve payload.
	cfg := wavesketch.Default(32)
	cfg.Rows, cfg.Width = 1, 1
	s, _ := wavesketch.NewBasic(cfg)
	n := 2048
	rng := rand.New(rand.NewSource(1))
	for w := 0; w < n; w++ {
		s.Update(key(0), int64(w), int64(rng.Intn(9000)))
	}
	s.Seal()
	r := FromBasic(0, 0, s)
	var buf bytes.Buffer
	if _, err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	analytic := float64(n>>8)*4 + 1.5*32*4 // bytes
	if got := float64(buf.Len()); got > 3*analytic {
		t.Errorf("wire size %v bytes ≫ analytic %v", got, analytic)
	}
	// And must beat raw counters by a wide margin.
	if buf.Len() > n*4/10 {
		t.Errorf("report %d bytes vs raw %d: compression ratio too weak", buf.Len(), n*4)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("short input must fail")
	}
	if _, err := Decode(bytes.NewReader(bytes.Repeat([]byte{0xff}, 64))); err == nil {
		t.Error("bad magic must fail")
	}
	// Correct magic, truncated body.
	s := buildBasic(t)
	var buf bytes.Buffer
	FromBasic(0, 0, s).Encode(&buf)
	b := buf.Bytes()
	if _, err := Decode(bytes.NewReader(b[:10])); err == nil {
		t.Error("truncated body must fail")
	}
}

func TestQueryAbsentFlowIsZero(t *testing.T) {
	s := buildBasic(t)
	var buf bytes.Buffer
	FromBasic(0, 0, s).Encode(&buf)
	dec, _ := Decode(&buf)
	q := mustQueryable(t, dec)
	for _, v := range q.QueryRange(key(999), 1000, 1010) {
		if v != 0 {
			t.Fatalf("absent flow estimate %v, want 0", v)
		}
	}
	if got := q.QueryRange(key(0), 10, 5); len(got) != 0 {
		t.Errorf("inverted range should be empty, got %v", got)
	}
}

// TestDecodeNeverPanics feeds random and mutated inputs to Decode: it may
// error, but must never panic or allocate unboundedly.
func TestDecodeNeverPanics(t *testing.T) {
	s := buildBasic(t)
	var buf bytes.Buffer
	FromBasic(0, 0, s).Encode(&buf)
	valid := buf.Bytes()

	rng := rand.New(rand.NewSource(99))
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("Decode panicked: %v", r)
		}
	}()
	// Random garbage.
	for trial := 0; trial < 200; trial++ {
		b := make([]byte, rng.Intn(256))
		rng.Read(b)
		Decode(bytes.NewReader(b))
	}
	// Mutations of a valid report (bit flips and truncations).
	for trial := 0; trial < 500; trial++ {
		b := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(4); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(3) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		if rep, err := Decode(bytes.NewReader(b)); err == nil && rep != nil {
			// Whatever decodes must stay queryable without panicking.
			q := mustQueryable(t, rep)
			q.QueryRange(key(1), 0, 64)
		}
	}
}
