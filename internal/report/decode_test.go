package report

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// v1Bytes is r in wire version 1 — which nothing reads any more, and which
// spells every field out, so the tests compare reports in it — from the one
// encoder that still writes it.
func v1Bytes(tb testing.TB, r *slabReport) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := oracleEncode(r, &buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// checkAgainstOracle is the differential property. DecodeBytes accepts
// exactly what the plain reference decoder accepts; a payload the version 1
// reference reads is refused by its version. An accepted payload is what
// the report re-encodes to, and indexed it reads back field for field what
// the reference read (slabs). NewQueryable refuses it exactly when a heavy
// key's light bucket is missing in some row; else its Queryable answers
// Span, Route and QueryRange bit for bit as the reference's slabs do —
// indexed in turn, and in the map-indexed oracle — for every heavy key, the
// fixtures' flows and a seeded random set, over the whole span and a part
// of it. The slabs
// survive the trip through version 1 bytes, and re-encode to their
// canonical form — the details reconstruction uses, in tree order — and
// byte-stably.
func checkAgainstOracle(t *testing.T, data []byte) {
	t.Helper()
	got, err := DecodeBytes(data)
	if _, v1err := oracleDecode(bytes.NewReader(data)); v1err == nil {
		if err == nil || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("DecodeBytes of a version 1 payload: err = %v, want unsupported version 1", err)
		}
		return
	}
	want, oerr := oracleDecodeV2(data)
	if (oerr == nil) != (err == nil) {
		t.Fatalf("DecodeBytes err = %v; oracle err = %v", err, oerr)
	}
	if err != nil {
		return
	}
	if enc := got.AppendEncode(nil); !bytes.Equal(enc, data) {
		t.Fatalf("a decoded report re-encodes to\n%x, not its payload\n%x", enc, data)
	}
	if viaV1, err := oracleDecode(bytes.NewReader(v1Bytes(t, want))); err != nil || !reflect.DeepEqual(viaV1, want) {
		t.Fatalf("version 1 round trip changed the report (err %v):\n got %+v\nwant %+v", err, viaV1, want)
	}
	enc := want.encode()
	again, err := oracleDecodeV2(enc)
	if _, derr := DecodeBytes(enc); err != nil || derr != nil {
		t.Fatalf("re-decode of an accepted report: %v / %v", err, derr)
	}
	if canon := canonical(want, byTreeID); !reflect.DeepEqual(again, canon) {
		t.Fatalf("decode∘encode is not the canonical report:\n got %+v\nwant %+v", again, canon)
	}
	if !bytes.Equal(again.encode(), enc) {
		t.Fatal("encode∘decode∘encode is not byte-stable")
	}
	// The index is sized by the declared shape: past this bound a mutation
	// only makes the check slow. Reading the curves back parses them
	// without reconstructing any, so every curve is checked.
	if got.Meta.Rows*got.Meta.Width > 1<<20 {
		return
	}
	if s := slabs(got); !reflect.DeepEqual(s, want) {
		t.Fatalf("the payload reads back as\n%+v\nwant %+v", s, want)
	}
	// NewQueryable refuses exactly the reports with a heavy key whose light
	// bucket is missing in some row.
	oracle := newOracleQueryable(want)
	q, qerr := NewQueryable(got)
	if (qerr == nil) != oracle.routable() {
		t.Fatalf("NewQueryable err = %v, yet every heavy key's buckets there is %v", qerr, oracle.routable())
	}
	// A query reconstructs a curve to as many samples as its |A| and len
	// say: past 2¹⁶ of them, likewise.
	if qerr != nil || !smallCurves(want) {
		return
	}
	ref := mustQueryable(t, build(t, want))
	lo, hi := q.Span()
	if rlo, rhi := ref.Span(); lo != rlo || hi != rhi {
		t.Fatalf("span [%d, %d), from the slabs [%d, %d)", lo, hi, rlo, rhi)
	}
	ranges := [][2]int64{{0, 64}}
	if w := hi - lo; lo < hi {
		if w <= 0 || w > 1<<12 {
			w = 1 << 12
		}
		ranges = [][2]int64{{lo, lo + w}, {lo + w/4, lo + w/2}}
	}
	g, rg := mustExtend(t, &RoutedSet{}, q), mustExtend(t, &RoutedSet{}, ref)
	for _, k := range append(q.HeavyFlows(), checkedFlows...) {
		// Whatever NewQueryable admits routes: the index finds the report
		// for a flow exactly when MightSee does.
		ids := byKey{g}.Route(k, math.MinInt64, math.MaxInt64, nil)
		if want := routeOracle([]*Queryable{q}, k, math.MinInt64, math.MaxInt64); !slices.Equal(ids, want) {
			t.Fatalf("Route(%s) = %v, want %v", k, ids, want)
		}
		if rids := (byKey{rg}).Route(k, math.MinInt64, math.MaxInt64, nil); !slices.Equal(ids, rids) || q.MightSee(k) != oracle.MightSee(k) {
			t.Fatalf("Route(%s) = %v, from the slabs %v", k, ids, rids)
		}
		for _, r := range ranges {
			a, b, c := q.QueryRange(k, r[0], r[1]), ref.QueryRange(k, r[0], r[1]), oracle.QueryRange(k, r[0], r[1])
			for i := range c {
				if x := math.Float64bits(c[i]); math.Float64bits(a[i]) != x || math.Float64bits(b[i]) != x {
					t.Fatalf("flow %s window %d: %v, from the slabs %v, oracle %v", k, r[0]+int64(i), a[i], b[i], c[i])
				}
			}
		}
	}
}

// checkedFlows are the flows checkAgainstOracle queries besides a report's
// heavy ones: every flow the fixtures send, and a seeded random set.
var checkedFlows = func() []flowkey.Key {
	var out []flowkey.Key
	for i := 0; i < 128; i++ {
		out = append(out, key(i))
	}
	for i := 500; i < 532; i++ {
		out = append(out, key(i))
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 16; i++ {
		out = append(out, flowkey.Key{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), SrcPort: uint16(rng.Intn(1 << 16)), DstPort: 4791, Proto: 17})
	}
	return out
}()

// smallCurves reports whether every curve of r reconstructs to at most
// 2¹⁶ samples.
func smallCurves(r *slabReport) bool {
	small := func(length int, approx []int64) bool {
		return length <= 1<<16 && len(approx) <= 1<<16>>r.Meta.Levels
	}
	for _, b := range r.Buckets {
		if !small(b.Len, b.Approx) {
			return false
		}
	}
	for _, h := range r.Heavy {
		if !small(h.Len, h.Approx) {
			return false
		}
	}
	return true
}

// bothVersions is r as hosts write it and in the version before, which
// DecodeBytes must refuse.
func bothVersions(tb testing.TB, r *slabReport) [][]byte {
	return [][]byte{r.encode(), v1Bytes(tb, r)}
}

// decodeSeeds is the corpus for FuzzDecode, each kind in both wire
// versions: well-formed reports, truncations and bit flips of one, the
// hostile count payloads, frames that break the position rule and, in
// version 2, the detail rule, and a report with a heavy flow whose light
// bucket is missing.
func decodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	seeds := [][]byte{{}, {0x4e, 0x4f, 0x4d}, bytes.Repeat([]byte{0xff}, 64)}
	orphaned, _ := orphanReports(tb)
	for _, r := range []*slabReport{
		slabs(fleetReport(tb, 0)), extremeReport(), longReport(), orphaned["one row"],
		{Meta: SketchMeta{Rows: 1, Width: 1, Levels: 1}},
	} {
		seeds = append(seeds, bothVersions(tb, r)...)
	}
	for _, valid := range bothVersions(tb, testReport(1, 512)) {
		seeds = append(seeds, valid)
		for _, cut := range []int{4, 9, 15, 20, len(valid) - 1} {
			seeds = append(seeds, valid[:cut])
		}
		for _, at := range []int{5, 12, 16, 18, 25, len(valid) - 3} {
			b := append([]byte(nil), valid...)
			b[at] ^= 0x81
			seeds = append(seeds, b)
		}
	}
	for _, h := range hostilePayloads() {
		seeds = append(seeds, h.payload)
	}
	for _, r := range misplacedReports() {
		seeds = append(seeds, bothVersions(tb, r)...)
	}
	for _, p := range misorderedDetails() {
		seeds = append(seeds, p)
	}
	return seeds
}

// extremeReport holds what the delta coding has to carry without loss:
// the int64 extremes next to each other, a zero, a negative w0 far from the
// period start, curves with no details and none at all in the last level.
func extremeReport() *slabReport {
	r := testReport(2, 1<<40)
	r.Buckets[0].W0 = -5
	r.Buckets[0].Details = []wavelet.DetailRef{
		{Level: 2, Index: 0, Val: math.MinInt64}, {Level: 2, Index: 1, Val: math.MaxInt64},
		{Level: 1, Index: 3, Val: 0}, {Level: 0, Index: 0, Val: math.MinInt64}, {Level: 0, Index: 7, Val: -1},
	}
	r.Buckets[1].Details = nil
	r.Heavy[0].W0 = math.MaxInt64
	r.Heavy[0].Details = []wavelet.DetailRef{{Level: 2, Index: 0, Val: 1 << 40}}
	return r
}

// longReport has curves past the 2¹⁶ samples checkAgainstOracle
// reconstructs, one by its len and one by its |A|: their payload is still
// read back in full.
func longReport() *slabReport {
	r := testReport(1, 512)
	r.Meta.Levels = 8
	r.Buckets[1].Len = 1 << 20
	r.Heavy[0].Approx = make([]int64, 300) // 300<<8 samples
	for i := range r.Heavy[0].Approx {
		r.Heavy[0].Approx[i] = int64(7*i - 1000)
	}
	return r
}

// misorderedDetails are version 2 payloads whose one curve breaks the
// detail rule: ids must ascend strictly inside [|A|, |A|<<levels).
func misorderedDetails() map[string][]byte {
	curve := func(details ...uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, magic)
		// Header, then bucket 0: w0 0, len 8, A = {6, 2} (n = 16), |D|.
		for _, v := range []uint64{version, 1, 0, 13, 1, 8, 3, 42, 1, 0, 0, 0, 8, 2, 12, 4, uint64(len(details) / 2)} {
			b = binary.AppendUvarint(b, v)
		}
		for _, v := range details {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	torn := curve(4<<1, 2, 1<<1, 0x80)
	return map[string][]byte{
		"repeated id":    curve(4<<1, 2, 0<<1, 2),
		"above the tree": curve(16<<1, 2),
		"inside A":       curve(1<<1|1, 2),
		"past the tree":  curve(15<<1, 2, 1<<1, 2),
		"gap wraps":      curve(4<<1, 2, math.MaxUint64, 2),
		"torn magnitude": torn[:len(torn)-1],
	}
}

// misplacedReports are testReports with one breach of the position rule
// each.
func misplacedReports() map[string]*slabReport {
	out := map[string]*slabReport{}
	for name, mutate := range map[string]func(*slabReport){
		"swapped":      func(r *slabReport) { r.Buckets[0], r.Buckets[1] = r.Buckets[1], r.Buckets[0] },
		"duplicate":    func(r *slabReport) { r.Buckets[1] = r.Buckets[0] },
		"row outside":  func(r *slabReport) { r.Buckets[1].Row = r.Meta.Rows },
		"index beyond": func(r *slabReport) { r.Buckets[1].Index = r.Meta.Width },
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
	var corpus [][]byte
	for _, r := range []*slabReport{slabs(FromBasic(0, 0, buildBasic(t))), slabs(table1Report(t, 0)), testReport(2, 0), extremeReport(), longReport()} {
		corpus = append(corpus, bothVersions(t, r)...)
	}
	for _, valid := range corpus {
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
// buckets are out of order, repeated or outside the sketch shape is bad, in
// version 1 bytes as much as any other version 1 frame.
func TestDecodeRejectsMisplacedBuckets(t *testing.T) {
	for name, r := range misplacedReports() {
		for i, enc := range bothVersions(t, r) {
			if _, err := DecodeBytes(enc); err == nil {
				t.Errorf("%s, version %d: decoded, want an error", name, version-i)
			}
		}
	}
}

// TestDecodeRejectsMisorderedDetails pins the detail rule of version 2.
func TestDecodeRejectsMisorderedDetails(t *testing.T) {
	for name, enc := range misorderedDetails() {
		if _, err := DecodeBytes(enc); err == nil {
			t.Errorf("%s: decoded, want an error", name)
		}
	}
}

// TestEncodeCanonicalizesDetails: details arrive at the encoder in tree
// order from a sealed sketch (TestSealedSketchesParse); a hand-built
// report's come in any order, and what build ships is what reconstruction
// would use.
func TestEncodeCanonicalizesDetails(t *testing.T) {
	r := testReport(1, 512)
	r.Buckets[0].Details = []wavelet.DetailRef{
		{Level: 0, Index: 5, Val: 9}, {Level: 2, Index: 1, Val: -4}, {Level: 0, Index: 5, Val: 7}, // (0,5) twice: the later wins
		{Level: 3, Index: 0, Val: 1}, {Level: 1, Index: 4, Val: 1}, {Level: -1, Index: 0, Val: 1}, {Level: 2, Index: -1, Val: 1}, // outside the tree
		{Level: 1, Index: 0, Val: 0},
	}
	got := slabs(build(t, r))
	want := []wavelet.DetailRef{{Level: 2, Index: 1, Val: -4}, {Level: 1, Index: 0, Val: 0}, {Level: 0, Index: 5, Val: 7}}
	if !reflect.DeepEqual(got.Buckets[0].Details, want) {
		t.Fatalf("shipped details %+v, want %+v", got.Buckets[0].Details, want)
	}
	curve := func(b *wavesketch.BucketExport) []float64 {
		return wavelet.Reconstruct(b.Approx, b.Details, r.Meta.Levels, b.Len)
	}
	if a, b := curve(&got.Buckets[0]), curve(&r.Buckets[0]); !reflect.DeepEqual(a, b) {
		t.Fatalf("the curve changed on the way:\n got %v\nwant %v", a, b)
	}
}

type hostile struct {
	name    string
	payload []byte
}

// hostilePayloads are short frames, in both wire versions, whose counts or
// shape promise far more than their bytes hold.
func hostilePayloads() []hostile {
	uv := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	var out []hostile
	for _, ver := range []uint64{version1, version} {
		header := func(levels, nBuckets, nHeavy uint64) []byte {
			b := binary.LittleEndian.AppendUint32(nil, magic)
			b = uv(b, ver, 1, 0, 13, 1, 8, levels, 42, nBuckets, nHeavy)
			if nBuckets == 1 {
				// The bucket at (0,0): row and index, or the gap alone.
				b = uv(b, map[uint64][]uint64{version1: {0, 0}, version: {0}}[ver]...)
			}
			return b
		}
		name := func(s string) string { return fmt.Sprintf("%s, version %d", s, ver) }
		out = append(out,
			// w0 0, len 8, |A| = 2^24 with L=1.
			hostile{name("approx count"), uv(header(1, 1, 0), 0, 8, 1<<24)},
			// The same bucket with |A| = 0 and |D| = 2^24.
			hostile{name("detail count"), uv(header(8, 1, 0), 0, 8, 0, 1<<24)},
			hostile{name("bucket count"), header(8, 1<<24, 0)},
			hostile{name("heavy count"), header(8, 0, 1<<24)},
		)
	}
	// Version 2 only, |A| = 1 and 40 bytes of details: |D| = 21 would need
	// 42; and 20 details that are all bytes but no tree (ids past n = 256).
	tail := bytes.Repeat([]byte{0x7e}, 40)
	head := func(nd uint64) []byte {
		b := binary.LittleEndian.AppendUint32(nil, magic)
		return uv(b, version, 1, 0, 13, 1, 8, 8, 42, 1, 0, 0, 0, 8, 1, 6, nd)
	}
	// And a 64×2²⁴ sketch, whose row bitmaps would take 128 MiB, with its
	// one bucket's |A| = 2²⁴, and with one well-formed bucket: the shape
	// alone is past what a sketch may take (Rows×Width ≤ 2²⁴).
	shape := func(curve ...uint64) []byte {
		b := uv(binary.LittleEndian.AppendUint32(nil, magic), version, 1, 0, 13, 64, 1<<24, 8, 42, 1, 0, 0)
		return uv(b, curve...)
	}
	return append(out,
		hostile{"two bytes a detail, version 2", append(head(21), tail...)},
		hostile{"details off the tree, version 2", append(head(20), tail...)},
		hostile{"declared shape, version 2", shape(0, 8, 1<<24)},
		hostile{"declared shape, one bucket, version 2", shape(0, 8, 1, 6, 0)},
	)
}

// allocatedPerRun is the bytes and allocations one call of f costs.
func allocatedPerRun(f func()) (bytes uint64, allocs float64) {
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls the function once more to warm up.
	return (after.TotalAlloc - before.TotalAlloc) / (runs + 1), allocs
}

// TestDecodeBoundsAllocationByPayload is the regression test for counts
// sizing allocations: every hostile payload is at most 64 bytes, must be
// rejected, and must cost under 4 KB and a handful of allocations; and no
// payload of the corpus costs more than its own copy and the report or the
// error message, and the index its header declares if it is accepted.
// Under -race only the rejections are checked (see raceEnabled).
func TestDecodeBoundsAllocationByPayload(t *testing.T) {
	for _, h := range hostilePayloads() {
		if len(h.payload) > 64 {
			t.Fatalf("%s: payload is %d bytes, want ≤ 64", h.name, len(h.payload))
		}
		if _, err := DecodeBytes(h.payload); err == nil {
			t.Errorf("%s: decoded, want an error", h.name)
		}
		if raceEnabled {
			continue
		}
		if perRun, allocs := allocatedPerRun(func() { DecodeBytes(h.payload) }); perRun >= 4<<10 || allocs > 8 {
			t.Errorf("%s: %d bytes in %v allocations per decode, want < 4 KB", h.name, perRun, allocs)
		}
	}
	if raceEnabled {
		return
	}
	for i, payload := range decodeSeeds(t) {
		// 512 bytes cover the HostReport itself or the error's message, and
		// the copy and the index round up to size classes at most 1.25
		// times their lengths.
		index := uint64(0)
		if _, err := DecodeBytes(payload); err == nil {
			index = indexBytes(payload)
		}
		if perRun, _ := allocatedPerRun(func() { DecodeBytes(payload) }); perRun > (uint64(len(payload))+index)*5/4+512 {
			t.Errorf("seed %d: %d bytes allocated for a payload of %d", i, perRun, len(payload))
		}
	}
}

// indexBytes bounds what parse allocates for payload's index by what its
// header declares: a bitmap word per 64 buckets of the shape, 4 bytes a
// curve and 16 a heavy key, for no more curves than the payload has bytes.
func indexBytes(payload []byte) uint64 {
	d := decoder{b: payload, off: min(len(payload), 4)}
	var hdr [10]uint64
	if d.uvarints(hdr[:]); d.bad || hdr[4] > 64 || hdr[5] > sane {
		return 0
	}
	n := uint64(len(payload))
	return hdr[4]*(hdr[5]+63)/64*8 + 4*min(hdr[8]+hdr[9], n) + 16*min(hdr[9], n)
}

// TestDecodeAllocations pins the decoder's allocation count, however many
// buckets there are: the report, the payload it keeps — through Decode too,
// which reads into the buffer it keeps — and the index parse builds in its
// walk: the curve offsets, the row bitmaps and, with a heavy part, the
// heavy keys.
func TestDecodeAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled scratch, so decodes allocate more")
	}
	for _, c := range benchReports {
		enc := c.build(t, 0).AppendEncode(nil)
		if got := testing.AllocsPerRun(20, func() { DecodeBytes(enc) }); got > 5 {
			t.Errorf("%s: DecodeBytes allocates %v times, want ≤ 5", c.name, got)
		}
		rd := bytes.NewReader(enc)
		if got := testing.AllocsPerRun(20, func() { rd.Reset(enc); Decode(rd) }); got > 5 {
			t.Errorf("%s: Decode allocates %v times, want ≤ 5", c.name, got)
		}
	}
}

// TestDecodedSlicesAreClipped: a decoded report shares no memory with the
// bytes it was decoded from, which the stream reader reuses at once, nor
// with what AppendEncode hands out.
func TestDecodedSlicesAreClipped(t *testing.T) {
	enc := table1Report(t, 0).AppendEncode(nil)
	want := bytes.Clone(enc)
	rep, err := DecodeBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	heavy := mustQueryable(t, rep).HeavyFlows()[0]
	before := mustQueryable(t, rep).QueryRange(heavy, 0, 512)
	clear(enc)
	out := rep.AppendEncode(make([]byte, 0, 1<<20))
	clear(out)
	if got := rep.AppendEncode(nil); !bytes.Equal(got, want) {
		t.Fatal("the decoded report's payload changed with the bytes around it")
	}
	if after := mustQueryable(t, rep).QueryRange(heavy, 0, 512); !slices.Equal(after, before) {
		t.Fatal("the decoded report answers differently once the bytes around it changed")
	}
}

// goldenReport exercises every field of the version 2 layout: a bucket gap,
// w0 on either side of the period start, negative approximations, details
// that step across levels with magnitudes rising and falling, a curve
// without details, a heavy entry.
func goldenReport() *slabReport {
	return &slabReport{
		Host: 3, PeriodStart: 1000, WindowShift: 13,
		Meta: SketchMeta{Rows: 2, Width: 8, Levels: 3, Seed: 42},
		Buckets: []wavesketch.BucketExport{
			{Row: 0, Index: 5, W0: 1003, Len: 14, Approx: []int64{40, -7}, Details: []wavelet.DetailRef{
				{Level: 2, Index: 1, Val: 12}, {Level: 1, Index: 0, Val: -300}, {Level: 1, Index: 3, Val: 5}, {Level: 0, Index: 7, Val: -5},
			}},
			{Row: 1, Index: 0, W0: 990, Len: 8, Approx: []int64{0}},
		},
		Heavy: []wavesketch.HeavyExport{{
			Key: flowkey.Key{SrcIP: 0x0a000001, DstIP: 2, SrcPort: 7, DstPort: 4791, Proto: 17},
			W0:  1000, Len: 8, Approx: []int64{100}, Details: []wavelet.DetailRef{{Level: 0, Index: 2, Val: 1}},
		}},
	}
}

// goldenBytes is goldenReport on the wire, field by field.
var goldenBytes = []byte{
	0x4e, 0x4f, 0x4d, 0x75, // magic "uMON", little endian
	0x02,       // version
	0x03,       // host
	0xe8, 0x07, // period start 1000
	0x0d,       // window shift
	0x02, 0x08, // rows, width
	0x03,       // levels
	0x2a,       // seed
	0x02, 0x01, // 2 buckets, 1 heavy entry

	0x05,       // bucket at position 5, 5 past the start
	0x06,       // w0 = period start + 3
	0x0e,       // len 14
	0x02,       // |A|
	0x50, 0x0d, // 40, -7
	0x04,       // |D|; the tree spans ids [2, 16)
	0x06, 0x18, // (2,1) is id 3: gap 3, positive; |12| − 0
	0x03, 0xc0, 0x04, // (1,0) is id 4: gap 1, negative; |−300| − 12 = 288
	0x06, 0xcd, 0x04, // (1,3) is id 7: gap 3, positive; 5 − 300 = −295
	0x11, 0x00, // (0,7) is id 15: gap 8, negative; 5 − 5

	0x02, // bucket at position 8 = (1,0), 2 past position 6
	0x13, // w0 = period start − 10
	0x08, // len
	0x01, // |A|
	0x00, // 0
	0x00, // |D|

	0x81, 0x80, 0x80, 0x50, // heavy: source 10.0.0.1
	0x02,       // destination
	0x07,       // source port
	0xb7, 0x25, // destination port 4791
	0x11,       // protocol
	0x00,       // w0 = period start
	0x08,       // len
	0x01,       // |A|
	0xc8, 0x01, // 100
	0x01,       // |D|; the tree spans ids [1, 8)
	0x0c, 0x02, // (0,2) is id 6: gap 6, positive; 1
}

// TestAppendEncodeGolden pins wire version 2: the golden report encodes to
// the bytes spelled out above through AppendSealed, which appends after
// what dst already holds; they decode to the golden report, which
// AppendEncode and Encode write back; a Table 1 full report and a basic
// 3×1024 one encode to pinned digests, and what they decode to survives
// the version 1 reference's round trip.
func TestAppendEncodeGolden(t *testing.T) {
	golden := goldenReport()
	if got := AppendSealed([]byte("prefix"), golden.header(), golden.Buckets, golden.Heavy); string(got[:len("prefix")]) != "prefix" || !bytes.Equal(got[len("prefix"):], goldenBytes) {
		t.Errorf("AppendSealed wrote\n%x, want prefix and\n%x", got, goldenBytes)
	}
	rep, err := DecodeBytes(goldenBytes)
	if err != nil || !bytes.Equal(v1Bytes(t, slabs(rep)), v1Bytes(t, golden)) {
		t.Fatalf("the golden bytes do not decode to the golden report (err %v)", err)
	}
	if got := rep.AppendEncode([]byte("prefix")); string(got[:len("prefix")]) != "prefix" || !bytes.Equal(got[len("prefix"):], goldenBytes) {
		t.Errorf("AppendEncode wrote\n%x, want prefix and\n%x", got, goldenBytes)
	}
	var viaEncode bytes.Buffer
	if n, err := rep.Encode(&viaEncode); err != nil || n != int64(len(goldenBytes)) || !bytes.Equal(viaEncode.Bytes(), goldenBytes) {
		t.Errorf("Encode wrote %d bytes (err %v), want the %d golden bytes", n, err, len(goldenBytes))
	}
	for i, want := range []struct {
		size   int
		digest string
	}{
		{4012, "f2f78dd547354d34476c55bc648dd639d33b8215265c40294fc6dacfa912ee7a"},
		{36511, "eb34e7fc176fb50bd6d7bceb44d2dad1fd984bd802ad80a36f64fc9f1cf842e9"},
	} {
		c := benchReports[i]
		rep := c.build(t, 3)
		enc := rep.AppendEncode(nil)
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); len(enc) != want.size || got != want.digest {
			t.Errorf("%s: %d bytes with digest %s, want %d with %s", c.name, len(enc), got, want.size, want.digest)
		}
		want := slabs(rep)
		viaV1, err := oracleDecode(bytes.NewReader(v1Bytes(t, want)))
		if err != nil || !reflect.DeepEqual(viaV1, want) {
			t.Errorf("%s: version 2 and version 1 decode apart (err %v)", c.name, err)
		}
	}
	if len(mustQueryable(t, table1Report(t, 3)).HeavyFlows()) == 0 {
		t.Error("the Table 1 fixture elected no heavy flow")
	}
}
