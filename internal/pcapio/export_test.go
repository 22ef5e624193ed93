package pcapio

import "io"

// WritePacketBatch appends many records through the coalescing buffer.
func (w *Writer) WritePacketBatch(ps []Packet) error {
	for i := range ps {
		if err := w.WritePacket(ps[i]); err != nil {
			return err
		}
	}
	return nil
}

// ReadPacket returns the next record with owned (copied) data, or io.EOF
// at the end of the stream. One allocation per record; the batch API
// avoids it.
func (r *Reader) ReadPacket() (Packet, error) {
	p, err := r.readRecord()
	p.Data = append([]byte(nil), p.Data...)
	return p, err
}

// NewReader validates the file header and returns a Reader on the shared
// default pool.
func NewReader(r io.Reader) (*Reader, error) {
	return NewReaderOpts(r, ReaderOpts{})
}

// ReadAll drains the stream. All packet data is copied out of the block
// into one compact arena (a single backing slab holding exactly the
// captured bytes), so the result outlives the block and costs O(total
// bytes), not one heap slab per packet.
func (r *Reader) ReadAll() ([]Packet, error) {
	type meta struct {
		tsNs    int64
		off, n  int
		origLen int
	}
	var arena []byte
	var metas []meta
	var b Batch
	var rerr error
	for {
		n, err := r.ReadBatch(&b, 0)
		for _, p := range b.Pkts[:n] {
			metas = append(metas, meta{p.TimestampNs, len(arena), len(p.Data), p.OrigLen})
			arena = append(arena, p.Data...)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			rerr = err
			break
		}
	}
	out := make([]Packet, len(metas))
	for i, m := range metas {
		out[i] = Packet{TimestampNs: m.tsNs, Data: arena[m.off : m.off+m.n : m.off+m.n], OrigLen: m.origLen}
	}
	return out, rerr
}

// newBlockWriter is NewWriter with a blockBytes coalescing buffer, which
// must hold the file header.
func newBlockWriter(w io.Writer, blockBytes int) *Writer {
	wr := NewWriter(w, 0)
	wr.buf = wr.buf[:blockBytes]
	return wr
}

// newBlockReader is NewReaderOpts with blockBytes-byte blocks, which must
// hold a record header.
func newBlockReader(r io.Reader, o ReaderOpts, blockBytes int) (*Reader, error) {
	rd, err := NewReaderOpts(r, o)
	if err == nil {
		rd.blkSize = blockBytes
	}
	return rd, err
}
