package analyzer

import (
	"bytes"
	"cmp"
	"slices"

	"umon/internal/flowkey"
	"umon/internal/netsim"
	"umon/internal/uevent"
)

// defaultGapNs is the event clustering gap when the caller passes none:
// queues drain within a few tens of microseconds once marking stops.
const defaultGapNs = 50_000

// portClusterer folds one port's mirror stream into congestion events
// incrementally: records appended in timestamp order extend or seal the
// open event as they arrive, so detection never re-sorts every mirror.
// Out-of-order appends and gap changes fall back to a per-port rebuild
// from the retained records.
type portClusterer struct {
	port netsim.PortID
	// recs retains the records of the port's events, in fold order, for
	// rebuilds (out-of-order input or a changed clustering gap); lastNs is
	// the timestamp of the newest.
	recs     recLog
	pool     *recPool
	lastNs   int64
	unsorted bool

	sealed    []Event
	open      Event
	openValid bool
	openFlows flowCounts
}

// recChunk is the unit ports retain records in (6 KB). Chunks come from and
// go back to one analyzer-wide recPool: the memory held follows the records
// in flight across all ports, not every port's largest event so far.
type recChunk [recChunkLen]uevent.MirrorRecord

const recChunkLen = 128

type recPool struct {
	free    []*recChunk
	scratch []uevent.MirrorRecord // rebuild's sort buffer
}

// recLog is one port's records: positions [head, head+n) of its chunks
// laid end to end.
type recLog struct {
	chunks  []*recChunk
	head, n int
}

func (l *recLog) at(i int) *uevent.MirrorRecord {
	i += l.head
	return &l.chunks[i/recChunkLen][i%recChunkLen]
}

func (l *recLog) push(m *uevent.MirrorRecord, pool *recPool) {
	if l.head+l.n == len(l.chunks)*recChunkLen {
		if k := len(pool.free); k > 0 {
			l.chunks, pool.free = append(l.chunks, pool.free[k-1]), pool.free[:k-1]
		} else {
			l.chunks = append(l.chunks, new(recChunk))
		}
	}
	l.n++
	*l.at(l.n - 1) = *m
}

// drop releases the first k records and the chunks that leaves empty.
func (l *recLog) drop(k int, pool *recPool) {
	l.head, l.n = l.head+k, l.n-k
	full := l.head / recChunkLen
	pool.free = append(pool.free, l.chunks[:full]...)
	l.chunks = l.chunks[:copy(l.chunks, l.chunks[full:])]
	l.head -= full * recChunkLen
}

// flowCounts counts the packets of each flow of the open event: counts in
// first-seen order, found through a key→index map that a run of packets
// of one flow — the common case — never consults.
type flowCounts struct {
	fs   []flowCount
	idx  map[flowkey.Key]int32
	last int32 // index of the flow counted last
}

type flowCount struct {
	k    flowkey.Key
	n, i int32 // count, first-seen index
}

func (c *flowCounts) inc(k flowkey.Key) {
	if len(c.fs) > 0 && c.fs[c.last].k == k {
		c.fs[c.last].n++
		return
	}
	i, ok := c.idx[k]
	if !ok {
		if c.idx == nil {
			c.idx = make(map[flowkey.Key]int32)
		}
		i = int32(len(c.fs))
		c.idx[k] = i
		c.fs = append(c.fs, flowCount{k: k, i: i})
	}
	c.fs[i].n++
	c.last = i
}

func (c *flowCounts) reset() {
	c.fs, c.last = c.fs[:0], 0
	clear(c.idx)
}

// rankFlows orders the flows of a cluster: most packets first, ties by
// the printed key. It sorts fs in place. A key is printed only if its
// count ties, and once (a comparator that prints is 7–10 % of a
// mirror-heavy ingest).
func rankFlows(fs []flowCount) []flowkey.Key {
	// The printed keys lie back to back in one arena, sized on the first tie
	// for all of them so that it never moves under printed's views.
	var arena []byte
	var printed [][]byte
	str := func(f flowCount) []byte {
		if printed == nil {
			printed = make([][]byte, len(fs))
			arena = make([]byte, 0, len(fs)*flowkey.TextLen)
		}
		if printed[f.i] == nil {
			at := len(arena)
			arena = f.k.AppendTo(arena)
			printed[f.i] = arena[at:]
		}
		return printed[f.i]
	}
	slices.SortFunc(fs, func(a, b flowCount) int {
		if a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return bytes.Compare(str(a), str(b))
	})
	out := make([]flowkey.Key, len(fs))
	for i, f := range fs {
		out[i] = f.k
	}
	return out
}

func (p *portClusterer) add(m *uevent.MirrorRecord, gapNs int64) {
	if p.recs.n > 0 && m.TimestampNs < p.lastNs {
		p.unsorted = true
	}
	p.lastNs = m.TimestampNs
	p.recs.push(m, p.pool)
	if p.unsorted {
		return
	}
	p.fold(m, gapNs)
}

// fold extends the open event with one in-order record, sealing first if
// the record falls beyond the clustering gap.
func (p *portClusterer) fold(m *uevent.MirrorRecord, gapNs int64) {
	if p.openValid && m.TimestampNs-p.open.EndNs > gapNs {
		p.seal()
	}
	if !p.openValid {
		p.openValid = true
		p.open = Event{Port: p.port, StartNs: m.TimestampNs, EndNs: m.TimestampNs}
	}
	p.open.EndNs = m.TimestampNs
	p.open.Packets++
	p.open.Bytes += int64(m.OrigBytes)
	p.openFlows.inc(m.Flow)
}

func (p *portClusterer) seal() {
	p.open.Flows = rankFlows(p.openFlows.fs)
	p.sealed = append(p.sealed, p.open)
	p.openValid = false
	p.openFlows.reset()
}

// rebuild re-sorts the retained records and re-folds them under gapNs.
func (p *portClusterer) rebuild(gapNs int64) {
	recs := p.pool.scratch[:0]
	for i := 0; i < p.recs.n; i++ {
		recs = append(recs, *p.recs.at(i))
	}
	uevent.SortByTime(recs)
	p.pool.scratch = recs
	p.unsorted = false
	p.sealed = p.sealed[:0]
	p.openValid = false
	p.openFlows.reset()
	for i := range recs {
		m := p.recs.at(i)
		*m = recs[i]
		p.fold(m, gapNs)
		p.lastNs = m.TimestampNs
	}
}

// events appends the port's events — the sealed ones plus a snapshot of
// the open one — without disturbing the incremental state, so later
// mirrors can still extend the open event.
func (p *portClusterer) events(dst []Event, gapNs int64) []Event {
	if p.unsorted {
		p.rebuild(gapNs)
	}
	dst = append(dst, p.sealed...)
	if p.openValid {
		ev := p.open
		ev.Flows = rankFlows(slices.Clone(p.openFlows.fs))
		dst = append(dst, ev)
	}
	return dst
}

// popClosed seals the open event if it ended at or before closedBelow and
// moves the sealed events at or below the cut to dst, releasing their
// records: a port's events are ascending and its records lie in fold
// order, so those are the first sum-of-Packets records. An event that
// stays open costs one comparison: it is not ranked, copied or sorted.
func (p *portClusterer) popClosed(dst []Event, closedBelow, gapNs int64) []Event {
	if p.unsorted {
		p.rebuild(gapNs)
	}
	if p.openValid && p.open.EndNs <= closedBelow {
		p.seal()
	}
	k, released := 0, 0
	for k < len(p.sealed) && p.sealed[k].EndNs <= closedBelow {
		released += p.sealed[k].Packets
		k++
	}
	if k == 0 {
		return dst
	}
	dst = append(dst, p.sealed[:k]...)
	n := copy(p.sealed, p.sealed[k:])
	clear(p.sealed[n:]) // drop the references to the popped events' Flows
	p.sealed = p.sealed[:n]
	p.recs.drop(released, p.pool)
	return dst
}
