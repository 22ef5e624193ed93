package pcapio

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
