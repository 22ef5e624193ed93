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
	"cmp"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

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

// HostReport is one measurement period's upload from one host. The sealing
// side fills Buckets and Heavy; a decoded report leaves them nil and keeps
// its payload, which a Queryable reads the curves off. It is read-only: a
// decoded report's header fields are not re-encoded — AppendEncode appends
// the payload as it arrived — yet a Queryable reads them beside the
// payload, so changing one makes the two disagree.
type HostReport struct {
	Host        int
	PeriodStart int64 // absolute window id of the period start
	WindowShift uint8
	Meta        SketchMeta
	Buckets     []wavesketch.BucketExport
	// Heavy carries the full version's per-flow heavy entries (empty for
	// basic sketches).
	Heavy []wavesketch.HeavyExport
	wire  []byte // a decoded report's payload
}

// FromBasic builds a report from a sealed basic sketch. The curves alias
// the sketch (wavesketch.Export): encode before reusing it.
func FromBasic(host int, periodStart int64, s *wavesketch.Basic) *HostReport {
	cfg := s.Config()
	return &HostReport{
		Host:        host,
		PeriodStart: periodStart,
		WindowShift: measure.DefaultWindowShift,
		Meta:        SketchMeta{Rows: cfg.Rows, Width: cfg.Width, Levels: cfg.Levels, Seed: cfg.Seed},
		Buckets:     s.Export(nil),
	}
}

// FromFull builds a report from a sealed full sketch (light part buckets +
// heavy entries).
func FromFull(host int, periodStart int64, f *wavesketch.Full) *HostReport {
	r := FromBasic(host, periodStart, f.Light())
	r.Heavy = f.ExportHeavy(nil)
	return r
}

// --- encoding ---

// AppendEncode appends the report's version 2 wire encoding to dst and
// returns the extended slice. It allocates only when dst has to grow — so
// a caller that seals one report per period reuses one buffer — or when a
// curve's details are not in tree order already, as a sealed sketch's are.
// A decoded report appends its payload as it arrived, whatever its exported
// fields say now.
//
// After the header a bucket is the gap from the bucket before it, positions
// counted row·width + index, then its curve: w0 relative to the period
// start, len, A, and D in tree order, each detail the gap from the tree id
// before it with the value's sign in the low bit, then its magnitude less
// the magnitude before it (DESIGN.md "Report wire format").
func (r *HostReport) AppendEncode(dst []byte) []byte {
	if r.wire != nil {
		return append(dst, r.wire...)
	}
	dst = binary.LittleEndian.AppendUint32(dst, magic)
	dst = appendUvarints(dst, version, uint64(r.Host), uint64(r.PeriodStart), uint64(r.WindowShift),
		uint64(r.Meta.Rows), uint64(r.Meta.Width), uint64(r.Meta.Levels), r.Meta.Seed,
		uint64(len(r.Buckets)), uint64(len(r.Heavy)))
	next := uint64(0) // the position after the previous bucket's
	for i := range r.Buckets {
		b := &r.Buckets[i]
		pos := uint64(b.Row)*uint64(r.Meta.Width) + uint64(b.Index)
		dst = binary.AppendUvarint(dst, pos-next)
		next = pos + 1
		dst = r.appendCurve(dst, b.W0, b.Len, b.Approx, b.Details)
	}
	for i := range r.Heavy {
		h := &r.Heavy[i]
		k := &h.Key
		dst = appendUvarints(dst, uint64(k.SrcIP), uint64(k.DstIP), uint64(k.SrcPort), uint64(k.DstPort), uint64(k.Proto))
		dst = r.appendCurve(dst, h.W0, h.Len, h.Approx, h.Details)
	}
	return dst
}

func appendUvarints(dst []byte, vs ...uint64) []byte {
	for _, v := range vs {
		dst = binary.AppendUvarint(dst, v)
	}
	return dst
}

func (r *HostReport) appendCurve(dst []byte, w0 int64, length int, approx []int64, details []wavelet.DetailRef) []byte {
	dst = binary.AppendVarint(dst, w0-r.PeriodStart)
	dst = binary.AppendUvarint(dst, uint64(length))
	dst = binary.AppendUvarint(dst, uint64(len(approx)))
	for _, a := range approx {
		dst = binary.AppendVarint(dst, a)
	}
	return appendDetails(dst, details, len(approx), uint(r.Meta.Levels))
}

// appendDetails writes |D| and the details, which it expects in tree order.
// When they are not it starts over on their canonical form.
func appendDetails(dst []byte, details []wavelet.DetailRef, na int, levels uint) []byte {
	mark := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(details)))
	var prevID, prevMag uint64
	for i := range details {
		d := &details[i]
		id, ok := treeID(d, na, levels)
		if !ok || id <= prevID {
			return appendDetails(dst[:mark], canonicalDetails(details, na, levels), na, levels)
		}
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

// treeID numbers the details of a curve of na approximation values — over
// n = na<<levels samples — breadth first from the roots: level l holds the
// n>>(l+1) ids from n>>(l+1) on, so ids span [na, n). A detail outside the
// tree, which reconstruction ignores, has none.
func treeID(d *wavelet.DetailRef, na int, levels uint) (uint64, bool) {
	if uint(d.Level) >= levels {
		return 0, false
	}
	first := uint64(na) << (levels - 1 - uint(d.Level))
	return first + uint64(d.Index), uint64(d.Index) < first
}

// canonicalDetails is what reconstruction makes of details in any order:
// those inside the tree, in tree order, the last of any that share a
// position.
func canonicalDetails(details []wavelet.DetailRef, na int, levels uint) []wavelet.DetailRef {
	out := make([]wavelet.DetailRef, 0, len(details))
	for i := range details {
		if _, ok := treeID(&details[i], na, levels); ok {
			out = append(out, details[i])
		}
	}
	slices.SortStableFunc(out, wavelet.CompareTree)
	kept := out[:0]
	for i, d := range out {
		if i+1 == len(out) || wavelet.CompareTree(d, out[i+1]) != 0 {
			kept = append(kept, d)
		}
	}
	return kept
}

// Encode writes the report and returns the number of bytes written.
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

// parse validates a report in wire version 2 and returns it holding
// payload. It checks every field, bounds every count by the bytes still
// unread and allocates only the report. Buckets must come in strictly
// ascending (row, index) order inside the declared shape, as Export emits
// them, and a curve's details in strictly ascending tree order inside its
// tree; anything else is a bad frame. What it accepts is read unchecked
// from then on.
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
	r := &HostReport{
		Host:        int(hdr[1]),
		PeriodStart: int64(hdr[2]),
		WindowShift: uint8(hdr[3]),
		Meta:        SketchMeta{Rows: int(hdr[4]), Width: int(hdr[5]), Levels: int(hdr[6]), Seed: hdr[7]},
	}
	nBuckets, nHeavy := hdr[8], hdr[9]
	left := uint64(len(payload) - d.off) // ≤ 4 GiB: a Queryable keeps uint32 offsets
	if nBuckets > sane || nHeavy > sane || nBuckets > left/(bucketKeys+minCurveBytes) || nHeavy > left/(heavyKeys+minCurveBytes) || left > math.MaxUint32 {
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

	rows, width := hdr[4], hdr[5]
	next := uint64(0) // smallest position row·width+index the next bucket may take
	for i := uint64(0); i < nBuckets; i++ {
		if d.record(bucketKeys); d.bad {
			return nil, fmt.Errorf("report: bucket %d: bad record", i)
		}
		gap := d.f[0]
		if gap >= rows*width-next {
			return nil, fmt.Errorf("report: bucket %d: position %d out of shape", i, next+gap)
		}
		next += gap + 1
	}
	for i := uint64(0); i < nHeavy; i++ {
		if d.record(heavyKeys); d.bad {
			return nil, fmt.Errorf("report: heavy %d: bad record", i)
		}
	}
	r.wire = payload
	return r, nil
}

// encoded is r, or for a report never encoded a copy that keeps its
// encoding, its buckets first put as Export emits them: inside the shape,
// ascending, the later of two at one position.
func (r *HostReport) encoded() *HostReport {
	if r.wire != nil {
		return r
	}
	pos := func(b wavesketch.BucketExport) int { return b.Row*r.Meta.Width + b.Index }
	c := *r
	c.Buckets = slices.DeleteFunc(slices.Clone(r.Buckets), func(b wavesketch.BucketExport) bool {
		return b.Row < 0 || b.Row >= r.Meta.Rows || b.Index < 0 || b.Index >= r.Meta.Width
	})
	slices.Reverse(c.Buckets) // so that of two at one position the later sorts first, and stays
	slices.SortStableFunc(c.Buckets, func(a, b wavesketch.BucketExport) int { return cmp.Compare(pos(a), pos(b)) })
	c.Buckets = slices.CompactFunc(c.Buckets, func(a, b wavesketch.BucketExport) bool { return pos(a) == pos(b) })
	c.wire = c.AppendEncode(nil)
	c.Buckets, c.Heavy = nil, nil
	return &c
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

// record checks one bucket or heavy record: nkeys key fields (left in d.f),
// then the curve w0, len, |A|, A, |D|, D.
func (d *decoder) record(nkeys int) {
	d.uvarints(d.f[:nkeys+3])
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

// next steps over a record parse accepted or AppendEncode wrote, leaving
// its keys, w0, len and |A| in d.f, and returns its curve's offset.
func (d *decoder) next(nkeys int) uint32 {
	d.uvarints(d.f[:nkeys])
	off := uint32(d.off)
	d.uvarints(d.f[nkeys : nkeys+3])
	d.skip(d.f[nkeys+2])
	d.skip(2 * d.uvarint())
	return off
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
