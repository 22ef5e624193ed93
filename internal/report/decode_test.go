package report

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"umon/internal/wavelet"
)

// positionsOK is the one rule DecodeBytes adds to what oracleDecode
// accepts: buckets in strictly ascending (row, index) order inside the
// declared shape.
func positionsOK(r *HostReport) bool {
	next := 0
	for _, b := range r.Buckets {
		if b.Row < 0 || b.Row >= r.Meta.Rows || b.Index < 0 || b.Index >= r.Meta.Width || b.Row*r.Meta.Width+b.Index < next {
			return false
		}
		next = b.Row*r.Meta.Width + b.Index + 1
	}
	return true
}

// checkAgainstOracle is the differential property: DecodeBytes and the
// replaced decoder agree on accept/reject (up to the position rule) and,
// on accept, on every field; and what was accepted re-encodes to bytes
// that decode to the same report and re-encode to the same bytes.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeBytes(data)
	want, oerr := oracleDecode(bytes.NewReader(data))
	if accept := oerr == nil && positionsOK(want); accept != (err == nil) {
		t.Fatalf("DecodeBytes err = %v; oracle err = %v, positions ok = %v", err, oerr, oerr == nil && positionsOK(want))
	}
	if err != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded reports differ:\n got %+v\nwant %+v", got, want)
	}
	enc := got.AppendEncode(nil)
	var old bytes.Buffer
	if _, err := oracleEncode(got, &old); err != nil || !bytes.Equal(enc, old.Bytes()) {
		t.Fatalf("AppendEncode differs from the replaced encoder (err %v)", err)
	}
	again, err := DecodeBytes(enc)
	if err != nil {
		t.Fatalf("re-decode of an accepted report: %v", err)
	}
	if !reflect.DeepEqual(again, got) {
		t.Fatalf("decode∘encode changed the report:\n got %+v\nwant %+v", again, got)
	}
	if !bytes.Equal(again.AppendEncode(nil), enc) {
		t.Fatal("encode∘decode∘encode is not byte-stable")
	}
}

// decodeSeeds is the corpus for FuzzDecode: well-formed reports of every
// kind, truncations and bit flips of one, the hostile count payloads, and
// frames that break the position rule.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	valid := testReport(1, 512).AppendEncode(nil)
	seeds := [][]byte{
		valid,
		fleetReport(tb, 0).AppendEncode(nil),
		(&HostReport{Meta: SketchMeta{Rows: 1, Width: 1, Levels: 1}}).AppendEncode(nil),
		{}, {0x4e, 0x4f, 0x4d}, bytes.Repeat([]byte{0xff}, 64),
	}
	for _, cut := range []int{4, 9, 15, 20, len(valid) - 1} {
		seeds = append(seeds, valid[:cut])
	}
	for _, at := range []int{5, 12, 16, 18, 25, len(valid) - 3} {
		b := append([]byte(nil), valid...)
		b[at] ^= 0x81
		seeds = append(seeds, b)
	}
	for _, h := range hostilePayloads() {
		seeds = append(seeds, h.payload)
	}
	for _, r := range misplacedReports() {
		seeds = append(seeds, r.AppendEncode(nil))
	}
	return seeds
}

// misplacedReports are testReports with one breach of the position rule
// each.
func misplacedReports() map[string]*HostReport {
	out := map[string]*HostReport{}
	for name, mutate := range map[string]func(*HostReport){
		"swapped":      func(r *HostReport) { r.Buckets[0], r.Buckets[1] = r.Buckets[1], r.Buckets[0] },
		"duplicate":    func(r *HostReport) { r.Buckets[1] = r.Buckets[0] },
		"row outside":  func(r *HostReport) { r.Buckets[1].Row = r.Meta.Rows },
		"index beyond": func(r *HostReport) { r.Buckets[1].Index = r.Meta.Width },
	} {
		out[name] = testReport(1, 512)
		mutate(out[name])
	}
	return out
}

// FuzzDecode drives arbitrary payloads through DecodeBytes and the
// decoder it replaced. `make fuzz-seed` replays the corpus; `go test
// -fuzz FuzzDecode ./internal/report` explores from it.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(checkAgainstOracle)
}

// TestDecodeMatchesOracleOnMutations runs the differential property over
// random mutations of real reports — the cases a seed replay alone would
// not reach without the fuzz engine.
func TestDecodeMatchesOracleOnMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, valid := range [][]byte{
		FromBasic(0, 0, buildBasic(t)).AppendEncode(nil),
		table1Report(t, 0).AppendEncode(nil),
		testReport(2, 0).AppendEncode(nil),
	} {
		checkAgainstOracle(t, valid)
		for trial := 0; trial < 400; trial++ {
			b := append([]byte(nil), valid...)
			for k := 0; k < 1+rng.Intn(3); k++ {
				// Mostly in the header and first records, where a flip
				// changes structure, not one value.
				at := rng.Intn(len(b))
				if rng.Intn(2) == 0 {
					at = rng.Intn(min(len(b), 64))
				}
				b[at] ^= byte(1 << rng.Intn(8))
			}
			if rng.Intn(4) == 0 {
				b = b[:rng.Intn(len(b)+1)]
			}
			checkAgainstOracle(t, b)
		}
	}
}

// TestDecodeRejectsMisplacedBuckets pins the position rule: a frame whose
// buckets are out of order, repeated or outside the sketch shape is bad.
func TestDecodeRejectsMisplacedBuckets(t *testing.T) {
	for name, r := range misplacedReports() {
		if _, err := DecodeBytes(r.AppendEncode(nil)); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

type hostile struct {
	name    string
	payload []byte
}

// hostilePayloads are short frames whose counts promise far more than
// their bytes hold. Each passed every check of the replaced decoder up to
// the allocation it sized from the count.
func hostilePayloads() []hostile {
	header := func(levels, nBuckets, nHeavy uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, magic)
		for _, v := range []uint64{version, 1, 0, 13, 1, 8, levels, 42, nBuckets, nHeavy} {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	uv := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	return []hostile{
		// One bucket at (0,0), w0 0, len 8, |A| = 2^24 with L=1.
		{"approx count", uv(header(1, 1, 0), 0, 0, 0, 8, 1<<24)},
		// The same bucket with |A| = 0 and |D| = 2^24.
		{"detail count", uv(header(8, 1, 0), 0, 0, 0, 8, 0, 1<<24)},
		{"bucket count", header(8, 1<<24, 0)},
		{"heavy count", header(8, 0, 1<<24)},
	}
}

// TestDecodeBoundsAllocationByPayload is the regression test for counts
// sizing allocations: every hostile payload is at most 64 bytes, must be
// rejected, and must cost under 4 KB and a handful of allocations.
func TestDecodeBoundsAllocationByPayload(t *testing.T) {
	for _, h := range hostilePayloads() {
		if len(h.payload) > 64 {
			t.Fatalf("%s: payload is %d bytes, want ≤ 64", h.name, len(h.payload))
		}
		if _, err := DecodeBytes(h.payload); err == nil {
			t.Errorf("%s: decoded, want an error", h.name)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs := testing.AllocsPerRun(runs, func() { DecodeBytes(h.payload) })
		runtime.ReadMemStats(&after)
		// AllocsPerRun calls the function once more to warm up.
		perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		if perRun >= 4<<10 || allocs > 8 {
			t.Errorf("%s: %d bytes in %v allocations per decode, want < 4 KB", h.name, perRun, allocs)
		}
	}
}

// TestDecodeAllocations pins the decoder's allocation count: the report,
// the bucket and heavy slabs, the approximation and detail slabs — and,
// through Decode, the payload copy — however many buckets there are.
func TestDecodeAllocations(t *testing.T) {
	for _, c := range benchReports {
		enc := c.build(t, 0).AppendEncode(nil)
		if got := testing.AllocsPerRun(20, func() { DecodeBytes(enc) }); got > 5 {
			t.Errorf("%s: DecodeBytes allocates %v times, want ≤ 5", c.name, got)
		}
		rd := bytes.NewReader(enc)
		if got := testing.AllocsPerRun(20, func() { rd.Reset(enc); Decode(rd) }); got > 6 {
			t.Errorf("%s: Decode allocates %v times, want ≤ 6", c.name, got)
		}
	}
}

// TestDecodedSlicesAreClipped checks that no decoded curve can be grown
// into its neighbour's stretch of the shared slab.
func TestDecodedSlicesAreClipped(t *testing.T) {
	rep, err := DecodeBytes(table1Report(t, 0).AppendEncode(nil))
	if err != nil {
		t.Fatal(err)
	}
	check := func(a []int64, d []wavelet.DetailRef) {
		if cap(a) != len(a) || cap(d) != len(d) {
			t.Fatalf("curve slices not clipped: approx %d/%d, details %d/%d", len(a), cap(a), len(d), cap(d))
		}
	}
	for _, b := range rep.Buckets {
		check(b.Approx, b.Details)
	}
	for _, h := range rep.Heavy {
		check(h.Approx, h.Details)
	}
}

// TestAppendEncodeGolden pins the wire format: AppendEncode, and Encode
// on top of it, produce byte for byte what the replaced encoder produced,
// on a Table 1 full report and on a basic 3×1024 one, and AppendEncode
// appends after what dst already holds.
func TestAppendEncodeGolden(t *testing.T) {
	for _, c := range benchReports {
		rep := c.build(t, 3)
		var want, viaEncode bytes.Buffer
		if _, err := oracleEncode(rep, &want); err != nil {
			t.Fatal(err)
		}
		got := rep.AppendEncode([]byte("prefix"))
		if !bytes.Equal(got[len("prefix"):], want.Bytes()) || string(got[:len("prefix")]) != "prefix" {
			t.Errorf("%s: AppendEncode differs from the replaced encoder", c.name)
		}
		n, err := rep.Encode(&viaEncode)
		if err != nil || n != int64(want.Len()) || !bytes.Equal(viaEncode.Bytes(), want.Bytes()) {
			t.Errorf("%s: Encode wrote %d bytes (err %v), want the %d golden bytes", c.name, n, err, want.Len())
		}
	}
	if len(table1Report(t, 3).Heavy) == 0 {
		t.Error("the Table 1 fixture elected no heavy flow")
	}
}
