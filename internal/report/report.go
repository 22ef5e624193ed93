// Package report defines the wire format hosts use to upload WaveSketch
// measurements to the µMon analyzer, and the decoded, queryable form the
// analyzer rebuilds. The encoding carries exactly what §4.2's bandwidth
// analysis counts — per bucket: w0, the approximation set A and the
// retained detail set D (level+index metadata, the α factor) — using
// varints, so measured report sizes track the analytic compression ratio.
package report

import (
	"encoding/binary"
	"fmt"
	"io"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// magic and version identify the stream format.
const (
	magic   = 0x754d4f4e // "uMON"
	version = 1
)

// SketchMeta is the sketch configuration the analyzer needs to re-locate a
// flow's buckets (hash seeds and shape).
type SketchMeta struct {
	Rows   int
	Width  int
	Levels int
	Seed   uint64
}

// HostReport is one measurement period's upload from one host.
type HostReport struct {
	Host        int
	PeriodStart int64 // absolute window id of the period start
	WindowShift uint8
	Meta        SketchMeta
	Buckets     []wavesketch.BucketExport
	// Heavy carries the full version's per-flow heavy entries (empty for
	// basic sketches).
	Heavy []wavesketch.HeavyExport
}

// FromBasic builds a report from a sealed basic sketch.
func FromBasic(host int, periodStart int64, s *wavesketch.Basic) *HostReport {
	cfg := s.Config()
	return &HostReport{
		Host:        host,
		PeriodStart: periodStart,
		WindowShift: measure.DefaultWindowShift,
		Meta:        SketchMeta{Rows: cfg.Rows, Width: cfg.Width, Levels: cfg.Levels, Seed: cfg.Seed},
		Buckets:     s.Export(),
	}
}

// FromFull builds a report from a sealed full sketch (light part buckets +
// heavy entries).
func FromFull(host int, periodStart int64, f *wavesketch.Full) *HostReport {
	r := FromBasic(host, periodStart, f.Light())
	r.Heavy = f.ExportHeavy()
	return r
}

// --- encoding ---

// AppendEncode appends the report's wire encoding to dst and returns the
// extended slice. It allocates only when dst has to grow, so a caller that
// seals one report per period reuses one buffer.
func (r *HostReport) AppendEncode(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = binary.AppendUvarint(dst, version)
	dst = binary.AppendUvarint(dst, uint64(r.Host))
	dst = binary.AppendUvarint(dst, uint64(r.PeriodStart))
	dst = binary.AppendUvarint(dst, uint64(r.WindowShift))
	dst = binary.AppendUvarint(dst, uint64(r.Meta.Rows))
	dst = binary.AppendUvarint(dst, uint64(r.Meta.Width))
	dst = binary.AppendUvarint(dst, uint64(r.Meta.Levels))
	dst = binary.AppendUvarint(dst, r.Meta.Seed)
	dst = binary.AppendUvarint(dst, uint64(len(r.Buckets)))
	dst = binary.AppendUvarint(dst, uint64(len(r.Heavy)))
	for i := range r.Buckets {
		b := &r.Buckets[i]
		dst = binary.AppendUvarint(dst, uint64(b.Row))
		dst = binary.AppendUvarint(dst, uint64(b.Index))
		dst = appendCurve(dst, b.W0, b.Len, b.Approx, b.Details)
	}
	for i := range r.Heavy {
		h := &r.Heavy[i]
		dst = binary.AppendUvarint(dst, uint64(h.Key.SrcIP))
		dst = binary.AppendUvarint(dst, uint64(h.Key.DstIP))
		dst = binary.AppendUvarint(dst, uint64(h.Key.SrcPort))
		dst = binary.AppendUvarint(dst, uint64(h.Key.DstPort))
		dst = binary.AppendUvarint(dst, uint64(h.Key.Proto))
		dst = appendCurve(dst, h.W0, h.Len, h.Approx, h.Details)
	}
	return dst
}

func appendCurve(dst []byte, w0 int64, length int, approx []int64, details []wavelet.DetailRef) []byte {
	dst = binary.AppendVarint(dst, w0)
	dst = binary.AppendUvarint(dst, uint64(length))
	dst = binary.AppendUvarint(dst, uint64(len(approx)))
	for _, a := range approx {
		dst = binary.AppendVarint(dst, a)
	}
	dst = binary.AppendUvarint(dst, uint64(len(details)))
	for i := range details {
		d := &details[i]
		dst = binary.AppendUvarint(dst, uint64(d.Level))
		dst = binary.AppendUvarint(dst, uint64(d.Index))
		dst = binary.AppendVarint(dst, d.Val)
	}
	return dst
}

// Encode writes the report and returns the number of bytes written.
func (r *HostReport) Encode(w io.Writer) (int64, error) {
	n, err := w.Write(r.AppendEncode(nil))
	return int64(n), err
}

// --- decoding ---

// Decode reads a report produced by Encode. It reads rd to the end (in one
// allocation when rd reports its length, as *bytes.Reader does) and hands
// the bytes to DecodeBytes.
func Decode(rd io.Reader) (*HostReport, error) {
	var payload []byte
	var err error
	if l, ok := rd.(interface{ Len() int }); ok {
		payload = make([]byte, l.Len())
		_, err = io.ReadFull(rd, payload)
	} else {
		payload, err = io.ReadAll(rd)
	}
	if err != nil {
		return nil, fmt.Errorf("report: reading payload: %w", err)
	}
	return DecodeBytes(payload)
}

// sane bounds every count and the sketch width a report may declare.
const sane = 1 << 24

// Fewest bytes a bucket, a heavy entry and a detail coefficient can take
// on the wire: one byte per varint field.
const (
	minBucketBytes = 6 // row, index, w0, len, |A|, |D|
	minHeavyBytes  = 9 // 5 key parts, w0, len, |A|, |D|
	minDetailBytes = 3 // level, index, value
)

// DecodeBytes parses a report produced by AppendEncode. The result shares
// no memory with payload. It walks the payload twice: a validating pass
// that checks every field and bounds every count by the bytes still
// unread — so no payload can make it allocate more than a small multiple
// of its own length — and a fill pass into exactly sized slabs: one each
// for the buckets, the heavy entries, all approximation values and all
// detail coefficients, the per-curve slices cap-clipped views of the last
// two. Buckets must come in strictly ascending (row, index) order inside
// the declared shape, as Export emits them; anything else is a bad frame.
func DecodeBytes(payload []byte) (*HostReport, error) {
	if len(payload) < 4 {
		return nil, fmt.Errorf("report: short magic: %w", io.ErrUnexpectedEOF)
	}
	if m := binary.LittleEndian.Uint32(payload); m != magic {
		return nil, fmt.Errorf("report: bad magic %#08x", m)
	}
	d := decoder{b: payload, off: 4}
	var hdr [10]uint64
	if d.uvarints(hdr[:]); d.bad {
		return nil, fmt.Errorf("report: truncated header: %w", io.ErrUnexpectedEOF)
	}
	if hdr[0] != version {
		return nil, fmt.Errorf("report: unsupported version %d", hdr[0])
	}
	r := &HostReport{
		Host:        int(hdr[1]),
		PeriodStart: int64(hdr[2]),
		WindowShift: uint8(hdr[3]),
		Meta:        SketchMeta{Rows: int(hdr[4]), Width: int(hdr[5]), Levels: int(hdr[6]), Seed: hdr[7]},
	}
	nBuckets, nHeavy := hdr[8], hdr[9]
	left := uint64(len(payload) - d.off)
	if nBuckets > sane || nHeavy > sane || nBuckets > left/minBucketBytes || nHeavy > left/minHeavyBytes {
		return nil, fmt.Errorf("report: implausible counts %d/%d in %d bytes", nBuckets, nHeavy, left)
	}
	// Bound the sketch shape: reconstruction allocates O(len(A)·2^Levels),
	// so a corrupted Levels field must be rejected, not obeyed.
	if r.Meta.Levels < 1 || r.Meta.Levels > 24 {
		return nil, fmt.Errorf("report: implausible wavelet depth %d", r.Meta.Levels)
	}
	if r.Meta.Rows < 1 || r.Meta.Rows > 64 || r.Meta.Width < 1 || r.Meta.Width > sane {
		return nil, fmt.Errorf("report: implausible sketch shape %d×%d", r.Meta.Rows, r.Meta.Width)
	}
	d.levels = uint(r.Meta.Levels)

	// Pass 1: validate and count.
	body := d.off
	rows, width := hdr[4], hdr[5]
	next := uint64(0) // smallest position row·width+index the next bucket may take
	for i := uint64(0); i < nBuckets; i++ {
		if d.record(bucketKeys); d.bad {
			return nil, fmt.Errorf("report: bucket %d: bad record", i)
		}
		row, idx := d.f[0], d.f[1]
		if row >= rows || idx >= width || row*width+idx < next {
			return nil, fmt.Errorf("report: bucket %d: position (%d,%d) out of shape or order", i, row, idx)
		}
		next = row*width + idx + 1
	}
	for i := uint64(0); i < nHeavy; i++ {
		if d.record(heavyKeys); d.bad {
			return nil, fmt.Errorf("report: heavy %d: bad record", i)
		}
	}

	// Pass 2: fill. The bytes are the ones pass 1 accepted, so nothing can
	// fail and the slabs come out exactly used.
	if nBuckets > 0 {
		r.Buckets = make([]wavesketch.BucketExport, nBuckets)
	}
	if nHeavy > 0 {
		r.Heavy = make([]wavesketch.HeavyExport, nHeavy)
	}
	d.approx = make([]int64, d.na)
	d.details = make([]wavelet.DetailRef, d.nd)
	d.off, d.fill = body, true
	for i := range r.Buckets {
		b := &r.Buckets[i]
		b.W0, b.Len, b.Approx, b.Details = d.record(bucketKeys)
		b.Row, b.Index = int(d.f[0]), int(d.f[1])
	}
	for i := range r.Heavy {
		h := &r.Heavy[i]
		h.W0, h.Len, h.Approx, h.Details = d.record(heavyKeys)
		h.Key = flowkey.Key{
			SrcIP: uint32(d.f[0]), DstIP: uint32(d.f[1]),
			SrcPort: uint16(d.f[2]), DstPort: uint16(d.f[3]), Proto: uint8(d.f[4]),
		}
	}
	return r, nil
}

// A record opens with its key fields — a bucket's (row, index), a heavy
// entry's five-tuple — followed by the curve's w0, len and |A|.
const (
	bucketKeys = 2
	heavyKeys  = 5
)

// decoder is a cursor over a report payload. A read past the end or an
// overlong varint sets bad and parks the cursor at the end, so every
// later read fails too and callers check once per record.
type decoder struct {
	b      []byte
	off    int
	bad    bool
	levels uint
	f      [heavyKeys + 3]uint64 // the current record's leading fields
	// Pass 1 totals the approximation values and detail coefficients in
	// na and nd; pass 2 (fill) hands out the front of the two slabs.
	na, nd  int
	fill    bool
	approx  []int64
	details []wavelet.DetailRef
}

func (d *decoder) fail() { d.bad, d.off = true, len(d.b) }

// uvarints reads len(dst) consecutive uvarints.
func (d *decoder) uvarints(dst []uint64) {
	b, off := d.b, d.off
	for i := range dst {
		if off < len(b) && b[off] < 0x80 {
			dst[i], off = uint64(b[off]), off+1
			continue
		}
		v, n := binary.Uvarint(b[off:])
		if n <= 0 {
			d.fail()
			return
		}
		dst[i], off = v, off+n
	}
	d.off = off
}

// skip walks n varints without decoding them, checking only what
// binary.Uvarint would reject: a value that runs off the end or past 64
// bits.
func (d *decoder) skip(n uint64) {
	b, off := d.b, d.off
	for ; n > 0; n-- {
		start := off
		for off < len(b) && b[off] >= 0x80 {
			off++
		}
		if off == len(b) || off-start >= binary.MaxVarintLen64 || off-start == binary.MaxVarintLen64-1 && b[off] > 1 {
			d.fail()
			return
		}
		off++
	}
	d.off = off
}

// record walks one bucket or heavy record: nkeys key fields (left in d.f),
// then the curve w0, len, |A|, A, |D|, D. Pass 1 validates it — |A| and
// |D| must fit the unread bytes, and the curve the reconstruction bounds —
// and adds to the totals; the fill pass stores A and D in the slabs and
// returns cap-clipped views of them. The fill loops decode in place (the
// binary calls inline) and rely on pass 1 for n > 0.
func (d *decoder) record(nkeys int) (w0 int64, length int, a []int64, det []wavelet.DetailRef) {
	d.uvarints(d.f[:nkeys+3])
	uw0, ulen, na := d.f[nkeys], d.f[nkeys+1], d.f[nkeys+2]
	// Reconstruction expands approximations by 2^Levels: bound the product
	// so corrupted inputs cannot force huge allocations.
	if d.bad || na > sane || na > uint64(len(d.b)-d.off) || na<<d.levels > 1<<28 || ulen > 1<<28 {
		d.fail()
		return
	}
	if d.fill {
		a, d.approx = d.approx[:na:na], d.approx[na:]
		b, off := d.b, d.off
		for i := range a {
			u, n := binary.Uvarint(b[off:])
			a[i], off = unzigzag(u), off+n
		}
		d.off = off
	} else {
		d.na += int(na)
		d.skip(na)
	}
	var one [1]uint64
	d.uvarints(one[:])
	nd := one[0]
	if d.bad || nd > sane || nd > uint64(len(d.b)-d.off)/minDetailBytes {
		d.fail()
		return
	}
	if d.fill {
		det, d.details = d.details[:nd:nd], d.details[nd:]
		b, off := d.b, d.off
		for i := range det {
			lv, n0 := binary.Uvarint(b[off:])
			ix, n1 := binary.Uvarint(b[off+n0:])
			val, n2 := binary.Uvarint(b[off+n0+n1:])
			det[i], off = wavelet.DetailRef{Level: int(lv), Index: int(ix), Val: unzigzag(val)}, off+n0+n1+n2
		}
		d.off = off
	} else {
		d.nd += int(nd)
		d.skip(3 * nd)
	}
	return unzigzag(uw0), int(ulen), a, det
}

// unzigzag maps a uvarint back to the signed value binary.AppendVarint
// encoded.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
