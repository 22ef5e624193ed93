// Package pcapio reads and writes the classic libpcap capture format
// (nanosecond-precision variant, magic 0xa1b23c4d), so µMon traces and
// mirrored event packets can be exchanged with standard tooling. Stdlib
// plus internal/mbuf only.
//
// Each direction moves bytes through one block instead of per-record heap
// slabs. The Reader fills its block (taken from an mbuf pool) per
// underlying read and parses many records out of it in place; ReadBatch
// hands out Packet views directly into the block. The Writer coalesces
// records into one plain buffer it keeps for its life and emits one large
// write when it fills.
//
// View lifetime contract: packets returned by ReadBatch alias the
// Reader's block and stay valid only until the next ReadBatch or Close on
// that Reader, which may move or overwrite the bytes. Callers that need
// longer-lived bytes must copy, or use ReadAll, which returns owned
// (copied) data.
package pcapio

import (
	"encoding/binary"
	"fmt"
	"io"

	"umon/internal/mbuf"
)

// Magic numbers of the classic pcap format.
const (
	magicNano  = 0xa1b23c4d // nanosecond timestamps (what we write)
	magicMicro = 0xa1b2c3d4 // microsecond timestamps (accepted on read)
)

// LinkTypeEthernet is the DLT for Ethernet frames.
const LinkTypeEthernet = 1

const (
	fileHeaderLen   = 24
	recordHeaderLen = 16

	// defaultBlockBytes is the block size both directions use: one
	// underlying read/write per ~256 KiB instead of two per record.
	defaultBlockBytes = 1 << 18

	// maxRecordBytes bounds one record (header + captured bytes) so a
	// corrupt capture length cannot demand an arbitrarily large buffer.
	maxRecordBytes = 1 << 20
)

// Packet is one captured record.
type Packet struct {
	TimestampNs int64
	// Data holds the captured bytes (possibly truncated to SnapLen). For
	// packets produced by ReadBatch this is a view into the Reader's block
	// — see the package lifetime contract.
	Data []byte
	// OrigLen is the original wire length.
	OrigLen int
}

// Writer emits a pcap stream, coalescing records into one buffer. Call
// Flush when done: records may be buffered until then.
type Writer struct {
	w       io.Writer
	snapLen uint32
	buf     []byte // the coalescing buffer, kept for the Writer's life
	n       int    // bytes buffered
}

// NewWriter returns a Writer with the given snap length (0 = 65535). The
// file header is buffered at once, so a Flush with no packets written
// still emits a valid (empty) capture.
func NewWriter(w io.Writer, snapLen int) *Writer {
	if snapLen <= 0 {
		snapLen = 65535
	}
	wr := &Writer{w: w, snapLen: uint32(snapLen), buf: make([]byte, defaultBlockBytes), n: fileHeaderLen}
	putFileHeader(wr.buf, wr.snapLen)
	return wr
}

func putFileHeader(h []byte, snapLen uint32) {
	binary.LittleEndian.PutUint32(h[0:4], magicNano)
	binary.LittleEndian.PutUint16(h[4:6], 2)  // major
	binary.LittleEndian.PutUint16(h[6:8], 4)  // minor
	binary.LittleEndian.PutUint64(h[8:16], 0) // thiszone and sigfigs
	binary.LittleEndian.PutUint32(h[16:20], snapLen)
	binary.LittleEndian.PutUint32(h[20:24], LinkTypeEthernet)
}

// WritePacket appends one record, truncating to the snap length. The
// record is buffered; Flush forces it out.
func (w *Writer) WritePacket(p Packet) error {
	data := p.Data
	if uint32(len(data)) > w.snapLen {
		data = data[:w.snapLen]
	}
	orig := max(p.OrigLen, len(data))
	need := recordHeaderLen + len(data)
	if w.n+need > len(w.buf) {
		if err := w.Flush(); err != nil {
			return err
		}
		if need > len(w.buf) {
			// Record larger than the buffer: emit it directly.
			putRecordHeader(w.buf[:recordHeaderLen], p.TimestampNs, len(data), orig)
			if _, err := w.w.Write(w.buf[:recordHeaderLen]); err != nil {
				return err
			}
			_, err := w.w.Write(data)
			return err
		}
	}
	putRecordHeader(w.buf[w.n:w.n+recordHeaderLen], p.TimestampNs, len(data), orig)
	copy(w.buf[w.n+recordHeaderLen:], data)
	w.n += need
	return nil
}

func putRecordHeader(h []byte, tsNs int64, capLen, origLen int) {
	binary.LittleEndian.PutUint32(h[0:4], uint32(tsNs/1e9))
	binary.LittleEndian.PutUint32(h[4:8], uint32(tsNs%1e9))
	binary.LittleEndian.PutUint32(h[8:12], uint32(capLen))
	binary.LittleEndian.PutUint32(h[12:16], uint32(origLen))
}

// Flush forces buffered records to the underlying writer. The Writer
// remains usable after Flush.
func (w *Writer) Flush() error {
	if w.n == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf[:w.n])
	w.n = 0
	return err
}

// Reader consumes a pcap stream through one block taken from an mbuf
// pool: one underlying read fills it, then records are parsed in place.
// Not safe for concurrent use.
type Reader struct {
	r        io.Reader
	bigEnd   bool
	nano     bool
	snapLen  uint32
	LinkType uint32

	pool    *mbuf.Pool
	blkSize int // the block size (tests set small ones)
	blk     *mbuf.Buf
	buf     []byte // blk.Data()
	pos     int    // consumed bytes
	filled  int    // valid bytes
	rerr    error  // sticky error from the underlying reader
}

// ReaderOpts parameterizes a Reader.
type ReaderOpts struct {
	// Pool supplies the block (nil: the shared default pool).
	Pool *mbuf.Pool
}

// NewReaderOpts returns a Reader drawing its block from o.Pool.
func NewReaderOpts(r io.Reader, o ReaderOpts) (*Reader, error) {
	var h [fileHeaderLen]byte
	if _, err := io.ReadFull(r, h[:]); err != nil {
		return nil, fmt.Errorf("pcapio: short file header: %w", err)
	}
	if o.Pool == nil {
		o.Pool = mbuf.Default()
	}
	rd := &Reader{r: r, pool: o.Pool, blkSize: defaultBlockBytes}
	magicLE := binary.LittleEndian.Uint32(h[0:4])
	magicBE := binary.BigEndian.Uint32(h[0:4])
	switch {
	case magicLE == magicNano:
		rd.nano = true
	case magicLE == magicMicro:
	case magicBE == magicNano:
		rd.nano, rd.bigEnd = true, true
	case magicBE == magicMicro:
		rd.bigEnd = true
	default:
		return nil, fmt.Errorf("pcapio: bad magic %#08x", magicLE)
	}
	rd.snapLen = rd.u32(h[16:20])
	rd.LinkType = rd.u32(h[20:24])
	return rd, nil
}

func (r *Reader) u32(b []byte) uint32 {
	if r.bigEnd {
		return binary.BigEndian.Uint32(b)
	}
	return binary.LittleEndian.Uint32(b)
}

// Close gives the Reader's block back to the pool. Views handed out
// earlier die with it.
func (r *Reader) Close() error {
	if r.blk != nil {
		r.pool.Free(r.blk)
		r.blk, r.buf = nil, nil
		r.pos, r.filled = 0, 0
	}
	return nil
}

// avail reports the unconsumed buffered bytes.
func (r *Reader) avail() int { return r.filled - r.pos }

// ensure buffers at least need unconsumed bytes. When they would run past
// the end of the block it moves the unconsumed tail to the front, into a
// bigger block only when need is larger than this one; either way the
// views handed out earlier die. Returns false when the stream ends first
// (r.rerr holds the cause).
func (r *Reader) ensure(need int) bool {
	if r.avail() >= need {
		return true
	}
	if r.pos+need > len(r.buf) {
		tail := r.buf[r.pos:r.filled]
		if need > len(r.buf) {
			nb := r.pool.Alloc(max(r.blkSize, need))
			copy(nb.Data(), tail)
			if r.blk != nil {
				r.pool.Free(r.blk)
			}
			r.blk, r.buf = nb, nb.Data()
		} else {
			copy(r.buf, tail)
		}
		r.pos, r.filled = 0, len(tail)
	}
	for r.avail() < need {
		if r.rerr != nil {
			return false
		}
		n, err := r.r.Read(r.buf[r.filled:])
		r.filled += n
		if err != nil {
			r.rerr = err
		} else if n == 0 {
			r.rerr = io.ErrNoProgress
		}
	}
	return true
}

// plausible bounds a record's capture length.
func (r *Reader) plausible(capLen uint32) bool {
	return !(r.snapLen > 0 && capLen > r.snapLen+65536 || capLen > maxRecordBytes-recordHeaderLen)
}

// buffered reports whether the next record lies wholly in the block, so
// that parsing it reads nothing and moves no bytes.
func (r *Reader) buffered() bool {
	avail := r.avail()
	if avail < recordHeaderLen {
		return false
	}
	capLen := r.u32(r.buf[r.pos+8 : r.pos+12])
	return r.plausible(capLen) && int(capLen) <= avail-recordHeaderLen
}

// readRecord parses the next record, reading (and blocking) until it is
// whole. Data is a view into the block.
func (r *Reader) readRecord() (Packet, error) {
	if !r.ensure(recordHeaderLen) {
		// A clean end or a partial record header both map to EOF, matching
		// the classic tcpdump tolerance for truncated captures.
		if r.rerr == io.EOF || r.rerr == io.ErrUnexpectedEOF {
			return Packet{}, io.EOF
		}
		return Packet{}, r.rerr
	}
	h := r.buf[r.pos : r.pos+recordHeaderLen]
	sec := int64(r.u32(h[0:4]))
	sub := int64(r.u32(h[4:8]))
	capLen := r.u32(h[8:12])
	orig := r.u32(h[12:16])
	if !r.plausible(capLen) {
		return Packet{}, fmt.Errorf("pcapio: implausible capture length %d", capLen)
	}
	if !r.ensure(recordHeaderLen + int(capLen)) {
		return Packet{}, fmt.Errorf("pcapio: truncated record: %w", unexpectedEOF(r.rerr))
	}
	data := r.buf[r.pos+recordHeaderLen : r.pos+recordHeaderLen+int(capLen)]
	r.pos += recordHeaderLen + int(capLen)
	ns := sec * 1e9
	if r.nano {
		ns += sub
	} else {
		ns += sub * 1e3
	}
	return Packet{TimestampNs: ns, Data: data, OrigLen: int(orig)}, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Batch is the destination of ReadBatch: a reusable set of packet views.
// The zero value is ready to use.
type Batch struct {
	// Pkts holds the batch's packets; Data fields alias the Reader's block.
	Pkts []Packet
}

// DefaultBatchSize is the ReadBatch record cap when the caller passes 0.
const DefaultBatchSize = 256

// ReadBatch refills b with up to max records (0: DefaultBatchSize) as
// views into the Reader's block, valid until the next ReadBatch or Close;
// the previous batch's views die here. It blocks in the underlying reader
// only while it holds no packet: once it has one it takes the records
// already wholly buffered and hands the batch over, so a batch is short at
// every block boundary and whenever a tailed stream has no more to give
// yet, and an error past the first record waits for the next call. Returns
// the number of packets read, never 0 with a nil error; 0 with io.EOF at
// the end of the stream.
func (r *Reader) ReadBatch(b *Batch, max int) (int, error) {
	if max <= 0 {
		max = DefaultBatchSize
	}
	b.Pkts = b.Pkts[:0]
	p, err := r.readRecord()
	if err != nil {
		return 0, err
	}
	b.Pkts = append(b.Pkts, p)
	for len(b.Pkts) < max && r.buffered() {
		if r.bigEnd {
			p, _ := r.readRecord() // wholly buffered and plausible: cannot fail
			b.Pkts = append(b.Pkts, p)
			continue
		}
		// The common case, parsed in place with no calls.
		h := r.buf[r.pos : r.pos+recordHeaderLen]
		ns := int64(binary.LittleEndian.Uint32(h[0:4])) * 1e9
		if sub := int64(binary.LittleEndian.Uint32(h[4:8])); r.nano {
			ns += sub
		} else {
			ns += sub * 1e3
		}
		start := r.pos + recordHeaderLen
		r.pos = start + int(binary.LittleEndian.Uint32(h[8:12]))
		b.Pkts = append(b.Pkts, Packet{
			TimestampNs: ns,
			Data:        r.buf[start:r.pos],
			OrigLen:     int(binary.LittleEndian.Uint32(h[12:16])),
		})
	}
	return len(b.Pkts), nil
}
