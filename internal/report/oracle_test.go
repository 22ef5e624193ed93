package report

// The implementations the flat datapath replaced, kept here as
// differential oracles: the streaming encoder and decoder of wire version
// 1 — the only code in the tree that can still write it — and the
// map-indexed Queryable; beside them a plain one-pass reading of wire
// version 2, the slab fill that decoding did before a report was kept as
// its payload, and the canonical form the encoder once put any report in
// before it took sealed sketches only. Nothing outside tests refers to
// them.

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sort"
	"testing"

	"umon/internal/flowkey"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// slabReport is a report as the sealing side holds it — the header fields
// and every curve in slices of its own — the form the tests build, mutate
// and compare reports in.
type slabReport struct {
	Host        int
	PeriodStart int64
	WindowShift uint8
	Meta        SketchMeta
	Buckets     []wavesketch.BucketExport
	Heavy       []wavesketch.HeavyExport
}

// header is s's header fields, as AppendSealed takes them.
func (s *slabReport) header() Header {
	return Header{Host: s.Host, PeriodStart: s.PeriodStart, WindowShift: s.WindowShift, Meta: s.Meta}
}

// encode is s as the encoder writes it, in whatever order its curves are.
func (s *slabReport) encode() []byte { return AppendSealed(nil, s.header(), s.Buckets, s.Heavy) }

// build is s as a HostReport. The encoder takes a sealed sketch's curves
// only, so s is first put in their form, as the encoder once did with any
// report: buckets inside the shape, in (row, index) order, the later of two
// at one position, and details as canonical leaves them. No answer of the
// map-indexed oracle over s changes.
func build(tb testing.TB, s *slabReport) *HostReport {
	tb.Helper()
	c := canonical(s, byTreeID)
	pos := func(b wavesketch.BucketExport) int { return b.Row*s.Meta.Width + b.Index }
	c.Buckets = slices.DeleteFunc(c.Buckets, func(b wavesketch.BucketExport) bool {
		return b.Row < 0 || b.Row >= s.Meta.Rows || b.Index < 0 || b.Index >= s.Meta.Width
	})
	slices.Reverse(c.Buckets) // so that of two at one position the later sorts first, and stays
	slices.SortStableFunc(c.Buckets, func(a, b wavesketch.BucketExport) int { return cmp.Compare(pos(a), pos(b)) })
	c.Buckets = slices.CompactFunc(c.Buckets, func(a, b wavesketch.BucketExport) bool { return pos(a) == pos(b) })
	r, err := DecodeBytes(c.encode())
	if err != nil {
		tb.Fatalf("a report in canonical form does not parse: %v", err)
	}
	return r
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// version1 is the wire version hosts wrote before version 2; DecodeBytes
// refuses it.
const version1 = 1

// oracleEncode is the version 1 encoder: the form the tests compare
// reports in, every field spelled out.
func oracleEncode(r *slabReport, w io.Writer) (int64, error) {
	cw := &countingWriter{w: w}
	bw := bufio.NewWriter(cw)
	var scratch [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(scratch[:], v)
		_, err := bw.Write(scratch[:n])
		return err
	}

	if err := binary.Write(bw, binary.LittleEndian, uint32(magic)); err != nil {
		return cw.n, err
	}
	header := []uint64{
		version1, uint64(r.Host), uint64(r.PeriodStart), uint64(r.WindowShift),
		uint64(r.Meta.Rows), uint64(r.Meta.Width), uint64(r.Meta.Levels), r.Meta.Seed,
		uint64(len(r.Buckets)), uint64(len(r.Heavy)),
	}
	for _, v := range header {
		if err := putUvarint(v); err != nil {
			return cw.n, err
		}
	}
	writeCurve := func(w0 int64, length int, approx []int64, details []wavelet.DetailRef) error {
		if err := putVarint(w0); err != nil {
			return err
		}
		if err := putUvarint(uint64(length)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(approx))); err != nil {
			return err
		}
		for _, a := range approx {
			if err := putVarint(a); err != nil {
				return err
			}
		}
		if err := putUvarint(uint64(len(details))); err != nil {
			return err
		}
		for _, d := range details {
			if err := putUvarint(uint64(d.Level)); err != nil {
				return err
			}
			if err := putUvarint(uint64(d.Index)); err != nil {
				return err
			}
			if err := putVarint(d.Val); err != nil {
				return err
			}
		}
		return nil
	}
	for _, b := range r.Buckets {
		if err := putUvarint(uint64(b.Row)); err != nil {
			return cw.n, err
		}
		if err := putUvarint(uint64(b.Index)); err != nil {
			return cw.n, err
		}
		if err := writeCurve(b.W0, b.Len, b.Approx, b.Details); err != nil {
			return cw.n, err
		}
	}
	for _, h := range r.Heavy {
		k := h.Key
		for _, v := range []uint64{uint64(k.SrcIP), uint64(k.DstIP), uint64(k.SrcPort), uint64(k.DstPort), uint64(k.Proto)} {
			if err := putUvarint(v); err != nil {
				return cw.n, err
			}
		}
		if err := writeCurve(h.W0, h.Len, h.Approx, h.Details); err != nil {
			return cw.n, err
		}
	}
	if err := bw.Flush(); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// oracleDecode is the bufio/closure version 1 decoder DecodeBytes
// replaced. It knows nothing of the bucket position rule; positionsOK adds
// it.
func oracleDecode(rd io.Reader) (*slabReport, error) {
	br := bufio.NewReader(rd)
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("report: short magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("report: bad magic %#08x", m)
	}
	u := func() (uint64, error) { return binary.ReadUvarint(br) }
	v := func() (int64, error) { return binary.ReadVarint(br) }

	var hdr [10]uint64
	for i := range hdr {
		x, err := u()
		if err != nil {
			return nil, fmt.Errorf("report: truncated header: %w", err)
		}
		hdr[i] = x
	}
	if hdr[0] != version1 {
		return nil, fmt.Errorf("report: unsupported version %d", hdr[0])
	}
	r := &slabReport{
		Host:        int(hdr[1]),
		PeriodStart: int64(hdr[2]),
		WindowShift: uint8(hdr[3]),
		Meta:        SketchMeta{Rows: int(hdr[4]), Width: int(hdr[5]), Levels: int(hdr[6]), Seed: hdr[7]},
	}
	nBuckets, nHeavy := hdr[8], hdr[9]
	const sane = 1 << 24
	if nBuckets > sane || nHeavy > sane {
		return nil, fmt.Errorf("report: implausible counts %d/%d", nBuckets, nHeavy)
	}
	// Bound the sketch shape: reconstruction allocates O(len(A)·2^Levels),
	// so a corrupted Levels field must be rejected, not obeyed.
	if r.Meta.Levels < 1 || r.Meta.Levels > 24 {
		return nil, fmt.Errorf("report: implausible wavelet depth %d", r.Meta.Levels)
	}
	if r.Meta.Rows < 1 || r.Meta.Rows > 64 || r.Meta.Width < 1 || r.Meta.Width > sane {
		return nil, fmt.Errorf("report: implausible sketch shape %d×%d", r.Meta.Rows, r.Meta.Width)
	}
	readCurve := func() (int64, int, []int64, []wavelet.DetailRef, error) {
		w0, err := v()
		if err != nil {
			return 0, 0, nil, nil, err
		}
		length, err := u()
		if err != nil {
			return 0, 0, nil, nil, err
		}
		na, err := u()
		if err != nil || na > sane {
			return 0, 0, nil, nil, fmt.Errorf("report: bad approx count: %w", err)
		}
		// Reconstruction expands approximations by 2^Levels: bound the
		// product so corrupted inputs cannot force huge allocations.
		if na<<uint(r.Meta.Levels) > 1<<28 || length > 1<<28 {
			return 0, 0, nil, nil, fmt.Errorf("report: implausible curve size (%d approx, len %d)", na, length)
		}
		approx := make([]int64, na)
		for i := range approx {
			if approx[i], err = v(); err != nil {
				return 0, 0, nil, nil, err
			}
		}
		nd, err := u()
		if err != nil || nd > sane {
			return 0, 0, nil, nil, fmt.Errorf("report: bad detail count: %w", err)
		}
		details := make([]wavelet.DetailRef, nd)
		for i := range details {
			lv, err := u()
			if err != nil {
				return 0, 0, nil, nil, err
			}
			ix, err := u()
			if err != nil {
				return 0, 0, nil, nil, err
			}
			val, err := v()
			if err != nil {
				return 0, 0, nil, nil, err
			}
			details[i] = wavelet.DetailRef{Level: int8(lv), Index: int32(ix), Val: val}
		}
		return w0, int(length), approx, details, nil
	}
	for i := uint64(0); i < nBuckets; i++ {
		row, err := u()
		if err != nil {
			return nil, err
		}
		idx, err := u()
		if err != nil {
			return nil, err
		}
		w0, length, approx, details, err := readCurve()
		if err != nil {
			return nil, fmt.Errorf("report: bucket %d: %w", i, err)
		}
		r.Buckets = append(r.Buckets, wavesketch.BucketExport{
			Row: int(row), Index: int(idx), W0: w0, Len: length, Approx: approx, Details: details,
		})
	}
	for i := uint64(0); i < nHeavy; i++ {
		var parts [5]uint64
		for j := range parts {
			x, err := u()
			if err != nil {
				return nil, err
			}
			parts[j] = x
		}
		w0, length, approx, details, err := readCurve()
		if err != nil {
			return nil, fmt.Errorf("report: heavy %d: %w", i, err)
		}
		r.Heavy = append(r.Heavy, wavesketch.HeavyExport{
			Key: flowkey.Key{
				SrcIP: uint32(parts[0]), DstIP: uint32(parts[1]),
				SrcPort: uint16(parts[2]), DstPort: uint16(parts[3]), Proto: uint8(parts[4]),
			},
			W0: w0, Len: length, Approx: approx, Details: details,
		})
	}
	return r, nil
}

// oracleDecodeV2 reads wire version 2 the plain way: one pass, one field at
// a time, growing what it builds, every rule of the layout checked where
// the field is read. DecodeBytes must accept exactly what it accepts and
// build exactly what it builds.
func oracleDecodeV2(data []byte) (*slabReport, error) {
	br := bytes.NewReader(data)
	var m uint32
	if err := binary.Read(br, binary.LittleEndian, &m); err != nil || m != magic {
		return nil, fmt.Errorf("report: bad magic %#08x (%v)", m, err)
	}
	bad := false
	u := func() uint64 {
		x, err := binary.ReadUvarint(br)
		bad = bad || err != nil
		return x
	}
	v := func() int64 { return unzigzag(u()) }
	var hdr [10]uint64
	for i := range hdr {
		hdr[i] = u()
	}
	if bad || hdr[0] != version {
		return nil, fmt.Errorf("report: not a version %d header", version)
	}
	r := &slabReport{
		Host:        int(hdr[1]),
		PeriodStart: int64(hdr[2]),
		WindowShift: uint8(hdr[3]),
		Meta:        SketchMeta{Rows: int(hdr[4]), Width: int(hdr[5]), Levels: int(hdr[6]), Seed: hdr[7]},
	}
	nBuckets, nHeavy, levels := hdr[8], hdr[9], hdr[6]
	if nBuckets > sane || nHeavy > sane || levels < 1 || levels > 24 ||
		r.Meta.Rows < 1 || r.Meta.Rows > 64 || r.Meta.Width < 1 || r.Meta.Width > sane ||
		r.Meta.Rows*r.Meta.Width > sane {
		return nil, fmt.Errorf("report: implausible header %v", hdr)
	}
	readCurve := func() (w0 int64, length int, approx []int64, details []wavelet.DetailRef, err error) {
		w0 = v() + r.PeriodStart
		ulen, na := u(), u()
		if bad || na > sane || na<<levels > 1<<28 || ulen > 1<<28 {
			return 0, 0, nil, nil, fmt.Errorf("report: bad curve head")
		}
		approx = []int64{}
		for i := uint64(0); i < na && !bad; i++ {
			approx = append(approx, v())
		}
		nd := u()
		if bad || nd > sane {
			return 0, 0, nil, nil, fmt.Errorf("report: bad detail count")
		}
		details = []wavelet.DetailRef{}
		n, id, mag := na<<levels, uint64(0), uint64(0)
		for i := uint64(0); i < nd; i++ {
			head, diff := u(), v()
			id += head >> 1 // head < 2⁶⁴ and id < 2²⁸: no wrap
			if bad || head>>1 == 0 || id < na || id >= n {
				return 0, 0, nil, nil, fmt.Errorf("report: detail %d: bad id %d", i, id)
			}
			mag += uint64(diff)
			val := int64(mag)
			if head&1 != 0 {
				val = -val
			}
			// The level whose ids [n>>(l+1), n>>l) hold id.
			level := 0
			for id < n>>(level+1) {
				level++
			}
			details = append(details, wavelet.DetailRef{Level: int8(level), Index: int32(id - n>>(level+1)), Val: val})
		}
		return w0, int(ulen), approx, details, nil
	}
	slots := hdr[4] * hdr[5]
	next := uint64(0)
	for i := uint64(0); i < nBuckets; i++ {
		gap := u()
		if bad || gap >= slots-next {
			return nil, fmt.Errorf("report: bucket %d: bad gap", i)
		}
		pos := next + gap
		next = pos + 1
		w0, length, approx, details, err := readCurve()
		if err != nil {
			return nil, fmt.Errorf("report: bucket %d: %w", i, err)
		}
		r.Buckets = append(r.Buckets, wavesketch.BucketExport{
			Row: int(pos / hdr[5]), Index: int(pos % hdr[5]), W0: w0, Len: length, Approx: approx, Details: details,
		})
	}
	for i := uint64(0); i < nHeavy; i++ {
		k := flowkey.Key{SrcIP: uint32(u()), DstIP: uint32(u()), SrcPort: uint16(u()), DstPort: uint16(u()), Proto: uint8(u())}
		w0, length, approx, details, err := readCurve()
		if err != nil {
			return nil, fmt.Errorf("report: heavy %d: %w", i, err)
		}
		r.Heavy = append(r.Heavy, wavesketch.HeavyExport{Key: k, W0: w0, Len: length, Approx: approx, Details: details})
	}
	return r, nil
}

// slabs is the slab fill a decode ran before reports were kept as their
// payloads: every curve of rep parsed into slices of its own, in the form
// the sealing side exports — exactly what oracleDecodeV2 builds from the
// same bytes. It reads the buckets' positions off the row bitmaps and each
// curve off its entry's offset, so it checks the index as much as the
// parser.
func slabs(rep *HostReport) *slabReport {
	q := &Queryable{rep: rep} // what parsing a curve reads
	r := &slabReport{Host: rep.Host, PeriodStart: rep.PeriodStart, WindowShift: rep.WindowShift, Meta: rep.Meta}
	curve := func(c int32) (w0 int64, length int, approx []int64, details []wavelet.DetailRef) {
		w0, _ = q.lookup(c, 0, 0)
		s := &curveBufs{approx: []int64{}, details: []wavelet.DetailRef{}}
		length = q.parseCurve(rep.curves[c], s)
		return w0, length, s.approx, s.details
	}
	words := (rep.Meta.Width + 63) / 64
	c := int32(0) // buckets are numbered in (row, index) order
	for w, word := range rep.rowBits {
		for ; word != 0; word &= word - 1 {
			b := wavesketch.BucketExport{Row: w / words, Index: w%words<<6 + bits.TrailingZeros64(word)}
			b.W0, b.Len, b.Approx, b.Details = curve(c)
			r.Buckets = append(r.Buckets, b)
			c++
		}
	}
	for i, k := range rep.keys {
		h := wavesketch.HeavyExport{Key: k}
		h.W0, h.Len, h.Approx, h.Details = curve(c + int32(i))
		r.Heavy = append(r.Heavy, h)
	}
	return r
}

// canonical is the report reconstruction sees: in every curve only the
// details inside its tree, the last of any that share a (level, index), in
// the order less puts them. The rest is shared with r.
func canonical(r *slabReport, less func(n int, a, b wavelet.DetailRef) bool) *slabReport {
	canon := func(approx []int64, details []wavelet.DetailRef) []wavelet.DetailRef {
		n := len(approx) << r.Meta.Levels
		last := map[[2]int]int64{}
		for _, d := range details {
			if l, i := int(d.Level), int(d.Index); l >= 0 && l < r.Meta.Levels && i >= 0 && i < n>>(l+1) {
				last[[2]int{l, i}] = d.Val
			}
		}
		out := make([]wavelet.DetailRef, 0, len(last))
		for at, val := range last {
			out = append(out, wavelet.DetailRef{Level: int8(at[0]), Index: int32(at[1]), Val: val})
		}
		sort.Slice(out, func(i, j int) bool { return less(n, out[i], out[j]) })
		return out
	}
	c := *r
	c.Buckets = append([]wavesketch.BucketExport(nil), r.Buckets...)
	c.Heavy = append([]wavesketch.HeavyExport(nil), r.Heavy...)
	for i := range c.Buckets {
		c.Buckets[i].Details = canon(c.Buckets[i].Approx, c.Buckets[i].Details)
	}
	for i := range c.Heavy {
		c.Heavy[i].Details = canon(c.Heavy[i].Approx, c.Heavy[i].Details)
	}
	return &c
}

// byTreeID is the order wire version 2 ships details in, written from the
// layout's own formula: id = (n >> (level+1)) + index.
func byTreeID(n int, a, b wavelet.DetailRef) bool {
	return n>>(a.Level+1)+int(a.Index) < n>>(b.Level+1)+int(b.Index)
}

// byLevelIndex is the order the content digest of TestSealedReportsPinned
// was taken in on the commit before version 2.
func byLevelIndex(_ int, a, b wavelet.DetailRef) bool {
	if a.Level != b.Level {
		return a.Level < b.Level
	}
	return a.Index < b.Index
}

// oracleQueryable is the index NewQueryable replaced, less its curve
// cache: every bucket in a map keyed by (row, index), every heavy entry
// in a map keyed by flow, colocated heavy keys listed per bucket. It
// answers with the same float operations in the same order, so answers
// must be bit-equal.
type oracleQueryable struct {
	rep       *slabReport
	seeds     []uint64
	width     uint64
	buckets   map[[2]int]*oracleBucket
	heavy     map[flowkey.Key]*wavesketch.HeavyExport
	heavyKeys []flowkey.Key
	rowBits   [][]uint64
}

type oracleBucket struct {
	exp       *wavesketch.BucketExport
	colocated []flowkey.Key
}

func newOracleQueryable(r *slabReport) *oracleQueryable {
	q := &oracleQueryable{
		rep:     r,
		width:   uint64(r.Meta.Width),
		buckets: make(map[[2]int]*oracleBucket, len(r.Buckets)),
		heavy:   make(map[flowkey.Key]*wavesketch.HeavyExport, len(r.Heavy)),
	}
	q.seeds = make([]uint64, r.Meta.Rows)
	for i := range q.seeds {
		q.seeds[i] = flowkey.RowSeed(r.Meta.Seed, i)
	}
	words := (r.Meta.Width + 63) / 64
	q.rowBits = make([][]uint64, r.Meta.Rows)
	for i := range q.rowBits {
		q.rowBits[i] = make([]uint64, words)
	}
	for i := range r.Buckets {
		b := &r.Buckets[i]
		q.buckets[[2]int{b.Row, b.Index}] = &oracleBucket{exp: b}
		if b.Row >= 0 && b.Row < len(q.rowBits) && b.Index >= 0 && b.Index < r.Meta.Width {
			q.rowBits[b.Row][b.Index>>6] |= 1 << (b.Index & 63)
		}
	}
	for i := range r.Heavy {
		h := &r.Heavy[i]
		if _, dup := q.heavy[h.Key]; !dup {
			q.heavyKeys = append(q.heavyKeys, h.Key)
		}
		q.heavy[h.Key] = h
	}
	for _, k := range q.heavyKeys {
		for r := range q.seeds {
			if e := q.buckets[[2]int{r, int(k.Hash(q.seeds[r]) % q.width)}]; e != nil {
				e.colocated = append(e.colocated, k)
			}
		}
	}
	return q
}

func (q *oracleQueryable) IsHeavy(f flowkey.Key) bool { return q.heavy[f] != nil }

// routable reports whether every heavy key's light bucket is there in
// every row: what NewQueryable admits.
func (q *oracleQueryable) routable() bool {
	for _, k := range q.heavyKeys {
		for r := range q.seeds {
			if q.buckets[[2]int{r, int(k.Hash(q.seeds[r]) % q.width)}] == nil {
				return false
			}
		}
	}
	return true
}

func (q *oracleQueryable) MightSee(f flowkey.Key) bool {
	if q.heavy[f] != nil {
		return true
	}
	if len(q.rowBits) == 0 {
		return false
	}
	for r := range q.seeds {
		idx := int(f.Hash(q.seeds[r]) % q.width)
		if q.rowBits[r][idx>>6]&(1<<(idx&63)) == 0 {
			return false
		}
	}
	return true
}

func (q *oracleQueryable) curve(approx []int64, details []wavelet.DetailRef, length int) []float64 {
	return wavelet.Reconstruct(approx, details, q.rep.Meta.Levels, length)
}

func (q *oracleQueryable) QueryRange(f flowkey.Key, from, to int64) []float64 {
	if to < from {
		to = from
	}
	out := make([]float64, to-from)
	if h := q.heavy[f]; h != nil {
		sliceInto(out, h.W0, q.curve(h.Approx, h.Details, h.Len), from, to)
		if w0 := h.W0; w0 > from {
			cut := min(w0, to)
			q.lightInto(out[:cut-from], f, from, cut)
		}
		return out
	}
	q.lightInto(out, f, from, to)
	return out
}

func (q *oracleQueryable) lightInto(out []float64, f flowkey.Key, from, to int64) {
	for i := range out {
		out[i] = 0
	}
	scratch := make([]float64, to-from)
	for r := range q.seeds {
		e := q.buckets[[2]int{r, int(f.Hash(q.seeds[r]) % q.width)}]
		if e == nil {
			for i := range out {
				out[i] = 0
			}
			return
		}
		sliceInto(scratch, e.exp.W0, q.curve(e.exp.Approx, e.exp.Details, e.exp.Len), from, to)
		for _, hk := range e.colocated {
			if hk == f {
				continue
			}
			h := q.heavy[hk]
			addInto(scratch, h.W0, q.curve(h.Approx, h.Details, h.Len), from, to, -1)
		}
		for i, v := range scratch {
			if v < 0 {
				v = 0
			}
			if r == 0 || v < out[i] {
				out[i] = v
			}
		}
	}
}
