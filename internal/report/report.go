// Package report defines the wire format hosts use to upload WaveSketch
// measurements to the µMon analyzer, and the queryable form the analyzer
// indexes them in, which reads curves off the payload itself. The encoding
// carries exactly what §4.2's bandwidth analysis counts — per bucket: w0,
// the approximation set A and the retained detail set D (level+index
// metadata, the α factor) — as varints of differences between neighbours,
// so measured report sizes sit at or below the analytic compression ratio.
package report

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"umon/internal/flowkey"
	"umon/internal/measure"
	"umon/internal/wavelet"
	"umon/internal/wavesketch"
)

// magic and version identify the stream format: hosts write version 2 and
// collectors read nothing else.
const (
	magic   = 0x754d4f4e // "uMON"
	version = 2
)

// SketchMeta is the sketch configuration the analyzer needs to re-locate a
// flow's buckets (hash seeds and shape).
type SketchMeta struct {
	Rows   int
	Width  int
	Levels int
	Seed   uint64
}

// Header is what a report says about itself before its curves: the host,
// the period and the sketch they were measured with.
type Header struct {
	Host        int
	PeriodStart int64 // absolute window id of the period start
	WindowShift uint8
	Meta        SketchMeta
}

// HostReport is one measurement period's upload from one host: its header
// and its version 2 payload, with the index parse built in the one walk it
// makes over the payload, which every Queryable of the report shares.
// Decode, DecodeBytes, FromBasic and FromFull make one, and it is
// read-only.
type HostReport struct {
	Header
	wire []byte
	// curves holds each curve's offset in wire: the buckets' in (row, index)
	// order, then the heavy entries'. rowBits holds one bitmap of non-empty
	// bucket indices per row, (Width+63)/64 words each. [lo, hi) is the hull
	// of every curve's windows [w0, w0+n); lo > hi when no curve has a sample.
	curves  []uint32
	rowBits []uint64
	keys    []flowkey.Key // the heavy entries'
	lo, hi  int64
}

// FromBasic builds the report of a sealed basic sketch. It panics if parse
// refuses what it encoded, which no sealed sketch of a shape parse accepts
// makes (TestSealedSketchesParse).
func FromBasic(host int, periodStart int64, s *wavesketch.Basic) *HostReport {
	return fromSealed(host, periodStart, s, nil)
}

// FromFull builds the report of a sealed full sketch, its light part's
// buckets and its heavy entries, as FromBasic does.
func FromFull(host int, periodStart int64, f *wavesketch.Full) *HostReport {
	return fromSealed(host, periodStart, f.Light(), f.ExportHeavy(nil))
}

func fromSealed(host int, periodStart int64, s *wavesketch.Basic, heavy []wavesketch.HeavyExport) *HostReport {
	cfg := s.Config()
	hdr := Header{Host: host, PeriodStart: periodStart, WindowShift: measure.DefaultWindowShift,
		Meta: SketchMeta{Rows: cfg.Rows, Width: cfg.Width, Levels: cfg.Levels, Seed: cfg.Seed}}
	r, err := parse(AppendSealed(nil, hdr, s.Export(nil), heavy))
	if err != nil {
		panic(fmt.Sprintf("report: host %d: a sealed sketch encoded to a bad report: %v", host, err))
	}
	return r
}

// --- encoding ---

// AppendSealed appends to dst the version 2 encoding of a report with
// header hdr and a sealed sketch's curves — buckets as Export lists them,
// heavy entries as ExportHeavy does — and returns the extended slice. It
// allocates only when dst has to grow, so a host that seals one report a
// period reuses one buffer. Curves in any other order, or details outside
// their tree, encode to a payload parse refuses.
//
// After the header a bucket is the gap from the bucket before it, positions
// counted row·width + index, then its curve: w0 relative to the period
// start, len, A, and D in tree order, each detail the gap from the tree id
// before it with the value's sign in the low bit, then its magnitude less
// the magnitude before it (DESIGN.md "Report wire format").
func AppendSealed(dst []byte, hdr Header, buckets []wavesketch.BucketExport, heavy []wavesketch.HeavyExport) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = appendUvarints(dst, version, uint64(hdr.Host), uint64(hdr.PeriodStart), uint64(hdr.WindowShift),
		uint64(hdr.Meta.Rows), uint64(hdr.Meta.Width), uint64(hdr.Meta.Levels), hdr.Meta.Seed,
		uint64(len(buckets)), uint64(len(heavy)))
	next := uint64(0) // the position after the previous bucket's
	for i := range buckets {
		b := &buckets[i]
		pos := uint64(b.Row)*uint64(hdr.Meta.Width) + uint64(b.Index)
		dst = binary.AppendUvarint(dst, pos-next)
		next = pos + 1
		dst = hdr.appendCurve(dst, b.W0, b.Len, b.Approx, b.Details)
	}
	for i := range heavy {
		h := &heavy[i]
		k := &h.Key
		dst = appendUvarints(dst, uint64(k.SrcIP), uint64(k.DstIP), uint64(k.SrcPort), uint64(k.DstPort), uint64(k.Proto))
		dst = hdr.appendCurve(dst, h.W0, h.Len, h.Approx, h.Details)
	}
	return dst
}

func appendUvarints(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

// appendCurve writes one curve. A detail's tree id numbers it breadth first
// from the roots among the n = |A|<<levels samples: level l holds the
// n>>(l+1) ids from n>>(l+1) on, so ids span [|A|, n).
func (h *Header) appendCurve(dst []byte, w0 int64, length int, approx []int64, details []wavelet.DetailRef) []byte {
	dst = binary.AppendVarint(dst, w0-h.PeriodStart)
	dst = appendUvarints(dst, uint64(length), uint64(len(approx)))
	for _, a := range approx {
		dst = binary.AppendVarint(dst, a)
	}
	dst = binary.AppendUvarint(dst, uint64(len(details)))
	levels := uint(h.Meta.Levels)
	var prevID, prevMag uint64
	for i := range details {
		d := &details[i]
		id := uint64(len(approx))<<(levels-1-uint(d.Level)) + uint64(d.Index)
		// Magnitudes and their differences wrap mod 2⁶⁴, so every int64
		// value round-trips.
		mag, sign := uint64(d.Val), uint64(0)
		if d.Val < 0 {
			mag, sign = -mag, 1
		}
		dst = binary.AppendUvarint(dst, (id-prevID)<<1|sign)
		dst = binary.AppendVarint(dst, int64(mag-prevMag))
		prevID, prevMag = id, mag
	}
	return dst
}

// AppendEncode appends the report's payload to dst and returns the extended
// slice.
func (r *HostReport) AppendEncode(dst []byte) []byte { return append(dst, r.wire...) }

// Encode writes the report's payload and returns the number of bytes
// written.
func (r *HostReport) Encode(w io.Writer) (int64, error) {
	n, err := w.Write(r.AppendEncode(nil))
	return int64(n), err
}

// --- decoding ---

// Decode reads rd to the end into the buffer the report keeps, sized by
// Len() when rd has one and clipped otherwise, and validates it as
// DecodeBytes does.
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
	return parse(slices.Clip(payload))
}

// DecodeBytes decodes a report in wire version 2 and keeps a copy of
// payload, which may be reused (a Frame's is the stream reader's buffer).
func DecodeBytes(payload []byte) (*HostReport, error) {
	r, err := parse(payload)
	if err != nil {
		return nil, err
	}
	r.wire = bytes.Clone(payload)
	return r, nil
}

// sane bounds every count and the sketch width a report may declare.
const sane = 1 << 24

// minCurveBytes is the fewest bytes a record can take on the wire after its
// key fields: one each for w0, len, |A| and |D|.
const minCurveBytes = 4

// parse validates a report in wire version 2 and returns it holding payload
// and its index. It checks every field and bounds every count by the bytes
// still unread, and allocates by the counts and the declared shape only
// once every record has passed. Buckets must come in strictly ascending
// (row, index) order inside the shape, as Export emits them, and a curve's
// details in strictly ascending tree order inside its tree; anything else
// is a bad frame. What it accepts is read unchecked from then on.
func parse(payload []byte) (*HostReport, error) {
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
	r := &HostReport{Header: Header{Host: int(hdr[1]), PeriodStart: int64(hdr[2]), WindowShift: uint8(hdr[3]),
		Meta: SketchMeta{Rows: int(hdr[4]), Width: int(hdr[5]), Levels: int(hdr[6]), Seed: hdr[7]}},
		lo: math.MaxInt64, hi: math.MinInt64}
	nBuckets, nHeavy := hdr[8], hdr[9]
	left := uint64(len(payload) - d.off) // ≤ 4 GiB: curves are uint32 offsets
	if nBuckets > sane || nHeavy > sane || nBuckets > left/(bucketKeys+minCurveBytes) || nHeavy > left/(heavyKeys+minCurveBytes) || left > math.MaxUint32 {
		return nil, fmt.Errorf("report: implausible counts %d/%d in %d bytes", nBuckets, nHeavy, left)
	}
	// Bound the sketch shape by what a sketch may take: reconstruction
	// allocates O(len(A)·2^Levels) and the row bitmaps O(Rows×Width), so a
	// corrupted field must be rejected, not obeyed.
	if r.Meta.Levels < 1 || r.Meta.Levels > wavesketch.MaxLevels {
		return nil, fmt.Errorf("report: implausible wavelet depth %d", r.Meta.Levels)
	}
	if r.Meta.Rows < 1 || r.Meta.Rows > wavesketch.MaxRows || r.Meta.Width < 1 || r.Meta.Width > wavesketch.MaxBuckets/r.Meta.Rows {
		return nil, fmt.Errorf("report: implausible sketch shape %d×%d", r.Meta.Rows, r.Meta.Width)
	}
	d.levels = uint(r.Meta.Levels)

	s := walkScratch.Get().(*walkBufs)
	defer func() {
		if max(cap(s.curves), cap(s.keys)) <= 1<<16 { // a large report's scratch is let go
			walkScratch.Put(s)
		}
	}()
	s.curves = slices.Grow(s.curves[:0], int(nBuckets+nHeavy))[:nBuckets+nHeavy]
	s.bits = slices.Grow(s.bits[:0], int(nBuckets))[:nBuckets]
	s.keys = slices.Grow(s.keys[:0], int(nHeavy))[:nHeavy]
	rows, width := hdr[4], hdr[5]
	words := (width + 63) / 64
	// Positions ascend, so rows are stepped through; next is the smallest
	// position row·width+index the next bucket may take.
	row, rowStart, next := uint64(0), uint64(0), uint64(0)
	for i := range s.bits {
		if s.curves[i] = d.record(bucketKeys); d.bad {
			return nil, fmt.Errorf("report: bucket %d: bad record", i)
		}
		gap := d.f[0]
		if gap >= rows*width-next {
			return nil, fmt.Errorf("report: bucket %d: position %d out of shape", i, next+gap)
		}
		pos := next + gap
		for pos >= rowStart+width {
			row, rowStart = row+1, rowStart+width
		}
		s.bits[i] = uint32(row*words*64 + pos - rowStart) // < 2²⁵: Rows×Width ≤ 2²⁴, each row padded to 64 bits
		next = pos + 1
		r.cover(d.f[1:4])
	}
	for i := range s.keys {
		if s.curves[nBuckets+uint64(i)] = d.record(heavyKeys); d.bad {
			return nil, fmt.Errorf("report: heavy %d: bad record", i)
		}
		f := &d.f
		s.keys[i] = flowkey.Key{SrcIP: uint32(f[0]), DstIP: uint32(f[1]), SrcPort: uint16(f[2]), DstPort: uint16(f[3]), Proto: uint8(f[4])}
		r.cover(f[5:8])
	}
	// Every record has passed: only now do the counts and the shape size the
	// index.
	r.curves, r.keys = slices.Clone(s.curves), slices.Clone(s.keys)
	r.rowBits = make([]uint64, rows*words)
	for _, b := range s.bits {
		r.rowBits[b>>6] |= 1 << (b & 63)
	}
	r.wire = payload
	return r, nil
}

// walkBufs is the pooled scratch parse's walk records a report's index in
// — each curve's offset, each bucket's bit in the row bitmaps, the heavy
// keys — before it is copied out, so a payload that fails allocates nothing
// by its counts or its declared shape.
type walkBufs struct {
	curves, bits []uint32
	keys         []flowkey.Key
}

var walkScratch = sync.Pool{New: func() any { return new(walkBufs) }}

// span is the windows [w0, w0+n) of a curve whose w0, len and |A| are h:
// n is len when positive, else the padded reconstruction's.
func (r *HostReport) span(h []uint64) (w0, n int64) {
	w0 = unzigzag(h[0]) + r.PeriodStart
	if n = int64(h[1]); n <= 0 {
		n = int64(h[2]) << uint(r.Meta.Levels)
	}
	return w0, n
}

// cover widens the report's hull by the curve h heads.
func (r *HostReport) cover(h []uint64) {
	if w0, n := r.span(h); n > 0 {
		r.lo, r.hi = min(r.lo, w0), max(r.hi, w0+n)
	}
}

// A record opens with its key fields — a bucket's gap from the bucket
// before it, a heavy entry's five-tuple — followed by the curve's w0, len
// and |A|.
const (
	bucketKeys = 1
	heavyKeys  = 5
)

// detailBytes is the fewest bytes a detail can take: a byte for each of its
// two varints.
const detailBytes = 2

// decoder is a cursor over a report payload. A read past the end or an
// overlong varint sets bad and parks the cursor at the end, so every
// later read fails too and callers check once per record.
type decoder struct {
	b      []byte
	off    int
	bad    bool
	levels uint
	f      [heavyKeys + 3]uint64 // the current record's leading fields
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

func (d *decoder) uvarint() uint64 {
	var one [1]uint64
	d.uvarints(one[:])
	return one[0]
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

// record checks one bucket or heavy record — nkeys key fields, then the
// curve w0, len, |A|, A, |D|, D — leaving the keys, w0, len and |A| in d.f,
// and returns the curve's offset.
func (d *decoder) record(nkeys int) (curve uint32) {
	d.uvarints(d.f[:nkeys])
	curve = uint32(d.off)
	d.uvarints(d.f[nkeys : nkeys+3])
	ulen, na := d.f[nkeys+1], d.f[nkeys+2]
	// Reconstruction expands approximations by 2^Levels: bound the product
	// so corrupted inputs cannot force huge allocations.
	if d.bad || na > sane || na > uint64(len(d.b)-d.off) || na<<d.levels > 1<<28 || ulen > 1<<28 {
		d.fail()
		return
	}
	d.skip(na)
	nd := d.uvarint()
	if d.bad || nd > sane || nd > uint64(len(d.b)-d.off)/detailBytes {
		d.fail()
		return
	}
	d.checkDetails(nd, na)
	return curve
}

// checkDetails checks a curve's nd details: tree ids strictly ascending
// inside [na, na<<levels), every varint well formed.
func (d *decoder) checkDetails(nd, na uint64) {
	b, off := d.b, d.off
	n, id := na<<d.levels, uint64(0)
	for ; nd > 0; nd-- {
		u, k := binary.Uvarint(b[off:])
		if k <= 0 {
			d.fail()
			return
		}
		_, k2 := binary.Uvarint(b[off+k:])
		// id < n from the second detail on; at the first a curve without
		// approximations (n = 0) fails here.
		gap := u >> 1
		if k2 <= 0 || gap == 0 || gap >= n-id || id+gap < na {
			d.fail()
			return
		}
		id, off = id+gap, off+k+k2
	}
	d.off = off
}

// details decodes a curve's details: ids back to (level, index), magnitudes
// summed up. Ids ascend, so the level only ever steps toward 0: lo is the
// first id of the current level.
func (d *decoder) details(det []wavelet.DetailRef, na uint64) {
	b, off := d.b, d.off
	lo, level := na, int8(d.levels)-1
	var id, mag uint64
	for i := range det {
		u, n0 := binary.Uvarint(b[off:])
		z, n1 := binary.Uvarint(b[off+n0:])
		off += n0 + n1
		for id += u >> 1; id >= 2*lo; lo *= 2 {
			level--
		}
		mag += uint64(unzigzag(z))
		val := int64(mag)
		if u&1 != 0 {
			val = -val
		}
		det[i] = wavelet.DetailRef{Level: level, Index: int32(id - lo), Val: val}
	}
	d.off = off
}

// unzigzag maps a uvarint back to the signed value binary.AppendVarint
// encoded.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
