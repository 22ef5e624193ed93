package report

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"umon/internal/flowkey"
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

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := buildBasic(t)
	r := FromBasic(3, 1000, s)
	var buf bytes.Buffer
	n, err := r.Encode(&buf)
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

func TestDecodedQueriesMatchLiveSketch(t *testing.T) {
	s := buildBasic(t)
	r := FromBasic(0, 1000, s)
	var buf bytes.Buffer
	if _, err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueryable(dec)
	for f := 0; f < 8; f++ {
		live := s.QueryRange(key(f), 1000, 1512)
		remote := q.QueryRange(key(f), 1000, 1512)
		for w := range live {
			if math.Abs(live[w]-remote[w]) > 1e-9 {
				t.Fatalf("flow %d window %d: live %v vs decoded %v", f, w, live[w], remote[w])
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
	r := FromFull(9, 0, full)
	if len(r.Heavy) == 0 {
		t.Fatal("full report lost the heavy entries")
	}
	var buf bytes.Buffer
	if _, err := r.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	dec, err := Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	q := NewQueryable(dec)
	if !q.IsHeavy(heavy) {
		t.Fatal("decoded report does not know the heavy flow")
	}
	if len(q.HeavyFlows()) != len(r.Heavy) {
		t.Errorf("heavy flows = %d, want %d", len(q.HeavyFlows()), len(r.Heavy))
	}
	live := full.QueryRange(heavy, 0, 400)
	remote := q.QueryRange(heavy, 0, 400)
	for w := range live {
		if math.Abs(live[w]-remote[w]) > 1e-9 {
			t.Fatalf("heavy window %d: live %v vs decoded %v", w, live[w], remote[w])
		}
	}
	// A mouse colliding with the heavy flow must benefit from heavy
	// subtraction in the decoded form too.
	mouseLive := full.QueryRange(key(3), 0, 400)
	mouseRemote := q.QueryRange(key(3), 0, 400)
	var dl, dr float64
	for w := range mouseLive {
		dl += mouseLive[w]
		dr += mouseRemote[w]
	}
	if math.Abs(dl-dr) > 1 {
		t.Errorf("mouse totals differ: live %v vs decoded %v", dl, dr)
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
	q := NewQueryable(dec)
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
			q := NewQueryable(rep)
			q.QueryRange(key(1), 0, 64)
		}
	}
}
