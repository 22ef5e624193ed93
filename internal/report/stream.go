package report

// Epoch-rotated report stream format. The one-shot Encode/Decode pair
// above is the *payload* codec (frame payload version 0); this file wraps
// it in a framed, CRC-guarded container that a long-lived deployment can
// append to forever and a collector can consume either sequentially (from
// a pipe, socket or growing file) or randomly (seeking through the
// trailing epoch index of a finished file).
//
// Layout:
//
//	stream header  : magic u32 | version u32
//	frame          : magic u32 | type u8 | payloadVersion u8 | reserved u16
//	                 host u32 | epoch u64 | payloadLen u32
//	                 payload[payloadLen] | crc32 u32
//	...
//	index frame    : one frame of type FrameIndex whose payload lists
//	                 (epoch, host, offset, length) for every report frame
//	footer         : magic u32 | reserved u32 | indexOffset u64
//
// All integers are little-endian. The CRC is IEEE crc32 over the frame
// header and payload, so a flipped bit anywhere in a frame is detected.
// Frames of an unknown type or payload version are length-skipped, which
// is how future encodings ride alongside v0 without breaking old readers.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

const (
	streamMagic   = 0x754d5331 // "uMS1"
	streamVersion = 1
	frameMagic    = 0x75465230 // "uFR0"
	footerMagic   = 0x754d5345 // "uMSE"

	streamHeaderLen = 8
	frameHeaderLen  = 24
	footerLen       = 16

	// maxFramePayload bounds a single frame so corrupted or hostile length
	// fields cannot force huge allocations.
	maxFramePayload = 1 << 28
)

// Frame types.
const (
	// FrameReport carries one encoded HostReport (payload version 0 is the
	// classic Encode stream).
	FrameReport = 1
	// FrameIndex carries the epoch index a StreamWriter appends at Close.
	FrameIndex = 2
	// FrameStamp carries the lifecycle stamp of the preceding report frame
	// of the same (host, epoch): wall-clock seal and ship times. Readers
	// that predate it skip it like any unknown type, so stamped streams
	// stay consumable everywhere.
	FrameStamp = 3
)

// stampPayloadLen is the v0 stamp payload: sealUnixNs i64 | shipUnixNs i64.
const stampPayloadLen = 16

// EpochStamp is the host-side lifecycle record of one sealed report:
// wall-clock nanoseconds at seal start and at ship completion. A zero
// field means "not recorded".
type EpochStamp struct {
	SealNs int64
	ShipNs int64
}

// EncodeStamp renders the stamp as a v0 stamp-frame payload.
func EncodeStamp(st EpochStamp) []byte {
	var b [stampPayloadLen]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(st.SealNs))
	binary.LittleEndian.PutUint64(b[8:], uint64(st.ShipNs))
	return b[:]
}

// DecodeStamp parses a v0 stamp-frame payload.
func DecodeStamp(payload []byte) (EpochStamp, error) {
	if len(payload) != stampPayloadLen {
		return EpochStamp{}, fmt.Errorf("report: stamp payload is %d bytes, want %d", len(payload), stampPayloadLen)
	}
	return EpochStamp{
		SealNs: int64(binary.LittleEndian.Uint64(payload[0:])),
		ShipNs: int64(binary.LittleEndian.Uint64(payload[8:])),
	}, nil
}

// Typed stream errors. Readers can match with errors.Is to decide whether
// to abort (ErrStreamCorrupt: framing lost) or skip and continue (ErrCRC:
// the frame was length-delimited, so the stream position is already past
// it).
var (
	ErrCRC           = errors.New("report: frame CRC mismatch")
	ErrStreamCorrupt = errors.New("report: corrupt stream framing")
)

// IndexEntry locates one report frame inside a stream file.
type IndexEntry struct {
	Epoch  uint64
	Host   int
	Offset int64 // file offset of the frame's magic
	Len    int   // whole frame length including header and CRC
}

// Frame is one decoded stream frame. Payload aliases the reader's
// internal buffer and is only valid until the next call to Next.
type Frame struct {
	Type    uint8
	Version uint8
	Host    int
	Epoch   uint64
	Payload []byte
}

// Stamp decodes the frame's payload as an EpochStamp.
func (f *Frame) Stamp() (EpochStamp, error) {
	if f.Type != FrameStamp {
		return EpochStamp{}, fmt.Errorf("report: frame type %d is not a stamp", f.Type)
	}
	if f.Version != 0 {
		return EpochStamp{}, fmt.Errorf("report: unknown stamp payload version %d", f.Version)
	}
	return DecodeStamp(f.Payload)
}

// --- writer ---

// StreamWriter appends framed reports to w and accumulates the epoch
// index, which Close writes as the final frame plus a fixed footer. Not
// safe for concurrent use; wrap with a mutex to share across hosts.
type StreamWriter struct {
	w     io.Writer
	off   int64
	index []IndexEntry
	frame []byte // whole-frame scratch: header + payload + crc
	err   error
}

// NewStreamWriter writes the stream header and returns a writer.
func NewStreamWriter(w io.Writer) (*StreamWriter, error) {
	var hdr [streamHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], streamMagic)
	binary.LittleEndian.PutUint32(hdr[4:], streamVersion)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("report: writing stream header: %w", err)
	}
	return &StreamWriter{w: w, off: streamHeaderLen}, nil
}

// writeFrame assembles one frame in the scratch buffer and writes it with
// a single Write call (one frame = one write keeps net-conn sinks sane).
func (sw *StreamWriter) writeFrame(typ, payloadVersion uint8, host int, epoch uint64, payload []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if len(payload) > maxFramePayload {
		return fmt.Errorf("report: frame payload %d exceeds limit", len(payload))
	}
	total := frameHeaderLen + len(payload) + 4
	if cap(sw.frame) < total {
		sw.frame = make([]byte, total)
	}
	b := sw.frame[:total]
	binary.LittleEndian.PutUint32(b[0:], frameMagic)
	b[4] = typ
	b[5] = payloadVersion
	b[6], b[7] = 0, 0
	binary.LittleEndian.PutUint32(b[8:], uint32(host))
	binary.LittleEndian.PutUint64(b[12:], epoch)
	binary.LittleEndian.PutUint32(b[20:], uint32(len(payload)))
	copy(b[frameHeaderLen:], payload)
	crc := crc32.ChecksumIEEE(b[:frameHeaderLen+len(payload)])
	binary.LittleEndian.PutUint32(b[frameHeaderLen+len(payload):], crc)
	if _, err := sw.w.Write(b); err != nil {
		sw.err = err
		return err
	}
	if typ == FrameReport {
		sw.index = append(sw.index, IndexEntry{Epoch: epoch, Host: host, Offset: sw.off, Len: total})
	}
	sw.off += int64(total)
	return nil
}

// WriteEncoded frames an already-encoded v0 report payload (the bytes a
// HostReport.Encode produced) under (host, epoch).
func (sw *StreamWriter) WriteEncoded(epoch uint64, host int, payload []byte) error {
	return sw.writeFrame(FrameReport, 0, host, epoch, payload)
}

// WriteStamp frames a lifecycle stamp for (host, epoch) — written right
// after the report frame it describes.
func (sw *StreamWriter) WriteStamp(epoch uint64, host int, st EpochStamp) error {
	return sw.writeFrame(FrameStamp, 0, host, epoch, EncodeStamp(st))
}

// Frames reports how many report frames have been written.
func (sw *StreamWriter) Frames() int { return len(sw.index) }

// Offset reports the number of bytes written so far.
func (sw *StreamWriter) Offset() int64 { return sw.off }

// Close appends the epoch index frame and the footer. It does not close
// the underlying writer.
func (sw *StreamWriter) Close() error {
	if sw.err != nil {
		return sw.err
	}
	indexOff := sw.off
	var buf bytes.Buffer
	var scratch [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(scratch[:], v)
		buf.Write(scratch[:n])
	}
	put(uint64(len(sw.index)))
	for _, e := range sw.index {
		put(e.Epoch)
		put(uint64(e.Host))
		put(uint64(e.Offset))
		put(uint64(e.Len))
	}
	if err := sw.writeFrame(FrameIndex, 0, 0, 0, buf.Bytes()); err != nil {
		return err
	}
	var ftr [footerLen]byte
	binary.LittleEndian.PutUint32(ftr[0:], footerMagic)
	binary.LittleEndian.PutUint32(ftr[4:], 0)
	binary.LittleEndian.PutUint64(ftr[8:], uint64(indexOff))
	if _, err := sw.w.Write(ftr[:]); err != nil {
		sw.err = err
		return err
	}
	sw.off += footerLen
	return nil
}

// --- reader ---

// StreamReader consumes framed reports sequentially from any io.Reader —
// a finished file, a growing file behind a tailing reader, a pipe or a
// socket. Unknown frame types and payload versions are skipped; CRC
// failures surface as ErrCRC but leave the reader positioned at the next
// frame, so a caller may log and continue.
type StreamReader struct {
	r       io.Reader
	hdr     [frameHeaderLen]byte
	body    []byte
	crcErrs int
}

// NewStreamReader validates the stream header.
func NewStreamReader(r io.Reader) (*StreamReader, error) {
	var hdr [streamHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("report: short stream header: %w", errUnexpected(err))
	}
	if m := binary.LittleEndian.Uint32(hdr[0:]); m != streamMagic {
		return nil, fmt.Errorf("%w: bad stream magic %#08x", ErrStreamCorrupt, m)
	}
	if v := binary.LittleEndian.Uint32(hdr[4:]); v != streamVersion {
		return nil, fmt.Errorf("report: unsupported stream version %d", v)
	}
	return &StreamReader{r: r}, nil
}

// CRCErrors reports how many frames failed their checksum.
func (sr *StreamReader) CRCErrors() int { return sr.crcErrs }

func errUnexpected(err error) error {
	if err == io.ErrUnexpectedEOF {
		return err
	}
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next decodable frame — a report or a lifecycle stamp
// (check f.Type) — reusing f's payload buffer. It returns io.EOF at a
// clean end of stream (the footer, or EOF exactly on a frame boundary).
// The returned frame's payload is valid until the next call.
func (sr *StreamReader) Next(f *Frame) error {
	for {
		if err := sr.frame(f); err != nil {
			return err
		}
		// Forward compatibility: an unknown frame type or a payload version
		// this reader cannot decode is skipped, not fatal.
		if (f.Type == FrameReport || f.Type == FrameStamp) && f.Version == 0 {
			return nil
		}
	}
}

// Frame bodies are read in steps that start at bodyStep bytes and double,
// so a header that declares more than the stream holds costs about twice
// what arrived; a reader keeps a body buffer between frames only up to
// maxKeptBody bytes.
const (
	bodyStep    = 64 << 10
	maxKeptBody = 1 << 20
)

// frame reads the frame at the reader's position into f, whatever its
// type, and checks its CRC. It returns io.EOF at a footer or at EOF
// exactly where a frame would start.
func (sr *StreamReader) frame(f *Frame) error {
	if _, err := io.ReadFull(sr.r, sr.hdr[:4]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return fmt.Errorf("report: short frame magic: %w", errUnexpected(err))
	}
	switch m := binary.LittleEndian.Uint32(sr.hdr[0:]); m {
	case frameMagic:
	case footerMagic:
		// Footer: consume the remainder and end the stream. A truncated
		// footer still ends cleanly — every frame before it was whole.
		io.CopyN(io.Discard, sr.r, footerLen-4)
		return io.EOF
	default:
		return fmt.Errorf("%w: bad frame magic %#08x", ErrStreamCorrupt, m)
	}
	if _, err := io.ReadFull(sr.r, sr.hdr[4:]); err != nil {
		return fmt.Errorf("report: truncated frame header: %w", errUnexpected(err))
	}
	plen := int(binary.LittleEndian.Uint32(sr.hdr[20:]))
	if plen > maxFramePayload {
		return fmt.Errorf("%w: implausible frame payload %d", ErrStreamCorrupt, plen)
	}
	body := sr.body[:0]
	for len(body) < plen+4 {
		step := min(plen+4-len(body), max(bodyStep, len(body)))
		body = slices.Grow(body, step)
		n, err := io.ReadFull(sr.r, body[len(body):len(body)+step])
		if body = body[:len(body)+n]; err != nil {
			return fmt.Errorf("report: truncated frame body: %w", errUnexpected(err))
		}
	}
	if cap(body) <= maxKeptBody {
		sr.body = body
	}
	crc := crc32.ChecksumIEEE(sr.hdr[:])
	crc = crc32.Update(crc, crc32.IEEETable, body[:plen])
	if want := binary.LittleEndian.Uint32(body[plen:]); crc != want {
		sr.crcErrs++
		return fmt.Errorf("%w: got %#08x want %#08x", ErrCRC, crc, want)
	}
	f.Type = sr.hdr[4]
	f.Version = sr.hdr[5]
	f.Host = int(binary.LittleEndian.Uint32(sr.hdr[8:]))
	f.Epoch = binary.LittleEndian.Uint64(sr.hdr[12:])
	f.Payload = body[:plen]
	return nil
}

// --- seekable index access ---

// ReadIndex loads the epoch index a finished stream file carries in its
// final frame, via the footer's offset.
func ReadIndex(rs io.ReadSeeker) ([]IndexEntry, error) {
	if _, err := rs.Seek(-footerLen, io.SeekEnd); err != nil {
		return nil, fmt.Errorf("report: seeking footer: %w", err)
	}
	var ftr [footerLen]byte
	if _, err := io.ReadFull(rs, ftr[:]); err != nil {
		return nil, fmt.Errorf("report: reading footer: %w", errUnexpected(err))
	}
	if m := binary.LittleEndian.Uint32(ftr[0:]); m != footerMagic {
		return nil, fmt.Errorf("%w: bad footer magic %#08x (unfinished stream?)", ErrStreamCorrupt, m)
	}
	indexOff := int64(binary.LittleEndian.Uint64(ftr[8:]))
	if indexOff < streamHeaderLen {
		return nil, fmt.Errorf("%w: implausible index offset %d", ErrStreamCorrupt, indexOff)
	}
	if _, err := rs.Seek(indexOff, io.SeekStart); err != nil {
		return nil, fmt.Errorf("report: seeking index: %w", err)
	}
	var f Frame
	if err := frameAt(rs, &f); err != nil {
		return nil, err
	}
	if f.Type != FrameIndex {
		return nil, fmt.Errorf("%w: footer points at frame type %d, not index", ErrStreamCorrupt, f.Type)
	}
	br := bytes.NewReader(f.Payload)
	n, err := binary.ReadUvarint(br)
	if err != nil || n > maxFramePayload {
		return nil, fmt.Errorf("%w: bad index count", ErrStreamCorrupt)
	}
	entries := make([]IndexEntry, 0, n)
	for i := uint64(0); i < n; i++ {
		var vals [4]uint64
		for j := range vals {
			v, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("%w: truncated index entry", ErrStreamCorrupt)
			}
			vals[j] = v
		}
		entries = append(entries, IndexEntry{
			Epoch: vals[0], Host: int(vals[1]), Offset: int64(vals[2]), Len: int(vals[3]),
		})
	}
	return entries, nil
}

// frameAt reads the frame at rs's position: a footer or EOF there is
// corrupt framing.
func frameAt(rs io.Reader, f *Frame) error {
	sr := StreamReader{r: rs}
	if err := sr.frame(f); err != io.EOF {
		return err
	}
	return fmt.Errorf("%w: no frame where one should start", ErrStreamCorrupt)
}

// ReadEpoch seeks out and decodes every report of one epoch using the
// file's index — random access without scanning the stream.
func ReadEpoch(rs io.ReadSeeker, index []IndexEntry, epoch uint64) ([]*HostReport, error) {
	var out []*HostReport
	for _, e := range index {
		if e.Epoch != epoch {
			continue
		}
		if _, err := rs.Seek(e.Offset, io.SeekStart); err != nil {
			return nil, err
		}
		var f Frame
		if err := frameAt(rs, &f); err != nil {
			return nil, fmt.Errorf("report: epoch %d frame at %d: %w", epoch, e.Offset, err)
		}
		if f.Type != FrameReport || f.Version != 0 {
			return nil, fmt.Errorf("%w: index entry at %d is no v0 report frame", ErrStreamCorrupt, e.Offset)
		}
		rep, err := DecodeBytes(f.Payload)
		if err != nil {
			return nil, err
		}
		out = append(out, rep)
	}
	return out, nil
}
