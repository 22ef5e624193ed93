package main

import (
	"fmt"
	"time"
)

// The benchmark traces the system from outside: a span is recorded around
// each call into a layer's exported functions, never inside them. Layers
// are named after the package that does the work.
type layer uint8

const (
	lDriver    layer = iota // the benchmark's own loop: not a layer of the system
	lUpdate                 // wavesketch: OnPacket calls that stay inside the open epoch
	lSeal                   // core: boundary-crossing OnPacket (Seal + FromFull + Encode)
	lShip                   // core: StreamSink.Ship (frame + CRC + stamp)
	lSwitch                 // core: SwitchMonitor.OnCEPacket (match + encode)
	lMirror                 // collect: AddMirrorPacket (decode + fold + automatic Poll)
	lFrameRead              // report: StreamReader.Next
	lDecode                 // report: Decode
	lAdmit                  // collect: AddStamped / Stamp
	lPoll                   // collect: explicit Poll
	lReplay                 // collect: Replay
	numLayers
)

// layerNames gives each layer its package and the name of the work timed.
var layerNames = [numLayers][2]string{
	{"driver", "self"}, {"wavesketch", "update"}, {"core", "seal"}, {"core", "ship"},
	{"core", "switch"}, {"collect", "mirror"}, {"report", "frame_read"},
	{"report", "decode"}, {"collect", "admit"}, {"collect", "poll"}, {"collect", "replay"},
}

// maxBatch bounds how many consecutive calls into one per-packet layer
// share a span, so the clock is read about 1 % as often as the layer is
// called.
const maxBatch = 256

// span is one interval of the traced run. Start and End are nanoseconds
// since the tracer was made; Count is the number of calls it covers.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // -1 for a root
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Count  int32  `json:"count"`
	layer  layer
	batch  bool
}

// tracer keeps spans in memory. It is single-goroutine: the stream loop
// is one goroutine by design.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int32
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) top() *span {
	if len(t.stack) == 0 {
		return nil
	}
	return &t.spans[t.stack[len(t.stack)-1]]
}

func (t *tracer) push(l layer, at int64, batch bool) {
	parent := int32(-1)
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Layer: layerNames[l][0], Name: layerNames[l][1],
		Start: at, Count: 1, layer: l, batch: batch,
	})
	t.stack = append(t.stack, id)
}

func (t *tracer) pop(at int64) {
	t.spans[t.stack[len(t.stack)-1]].End = at
	t.stack = t.stack[:len(t.stack)-1]
}

// closeBatch ends an open batched span with the clock reading the caller
// already took.
func (t *tracer) closeBatch(at int64) {
	if s := t.top(); s != nil && s.batch {
		t.pop(at)
	}
}

// begin opens a span that follows whatever ran before it.
func (t *tracer) begin(l layer) {
	at := t.now()
	t.closeBatch(at)
	t.push(l, at, false)
}

// nested opens a span inside the call the open span covers (a callback
// out of the layer being timed), so an open batch stays open around it.
func (t *tracer) nested(l layer) { t.push(l, t.now(), false) }

// end closes the innermost span opened by begin or nested.
func (t *tracer) end() {
	at := t.now()
	t.closeBatch(at)
	t.pop(at)
}

// endNested closes a span opened by nested.
func (t *tracer) endNested() { t.pop(t.now()) }

// hit counts one call into a per-packet layer, opening a new batched span
// when the layer changes or the batch is full.
func (t *tracer) hit(l layer) {
	if s := t.top(); s != nil && s.batch {
		if s.layer == l && s.Count < maxBatch {
			s.Count++
			return
		}
		at := t.now()
		t.pop(at)
		t.push(l, at, true)
		return
	}
	t.push(l, t.now(), true)
}

// ledgerRow is one layer's line of the ledger.
type ledgerRow struct {
	Layer string  `json:"layer"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
	Spans int     `json:"spans"`
	Calls int64   `json:"calls"`
}

// ledger is the per-layer account of a traced run: self time is a span's
// duration minus the part its child spans cover, so the rows sum to the
// root spans' wall time exactly.
type ledger struct {
	Rows  []ledgerRow `json:"rows"`
	WallS float64     `json:"wall_s"` // sum of the root spans
	// self[l] holds the self time of every span of layer l, in ns, and
	// total[l] their sum.
	self  [numLayers][]int64
	total [numLayers]int64
}

func (t *tracer) ledger() (*ledger, error) {
	if len(t.stack) != 0 {
		return nil, fmt.Errorf("trace: %d spans still open", len(t.stack))
	}
	self := make([]int64, len(t.spans))
	var wall int64
	for i := range t.spans {
		s := &t.spans[i]
		if s.End < s.Start {
			return nil, fmt.Errorf("trace: span %d ends before it starts", s.ID)
		}
		d := s.End - s.Start
		self[i] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		} else {
			wall += d
		}
	}
	lg := &ledger{WallS: float64(wall) / 1e9}
	var spans [numLayers]int
	var calls [numLayers]int64
	for i := range t.spans {
		s := &t.spans[i]
		if self[i] < 0 {
			return nil, fmt.Errorf("trace: span %d has children longer than itself", s.ID)
		}
		lg.self[s.layer] = append(lg.self[s.layer], self[i])
		lg.total[s.layer] += self[i]
		spans[s.layer]++
		calls[s.layer] += int64(s.Count)
	}
	var sum int64
	for l := layer(0); l < numLayers; l++ {
		sum += lg.total[l]
		lg.Rows = append(lg.Rows, ledgerRow{
			Layer: layerNames[l][0] + "." + layerNames[l][1], SelfS: float64(lg.total[l]) / 1e9,
			Share: ratio(float64(lg.total[l]), float64(wall)),
			Spans: spans[l], Calls: calls[l],
		})
	}
	if sum != wall {
		return nil, fmt.Errorf("trace: self times sum to %d ns, root spans to %d ns", sum, wall)
	}
	return lg, nil
}

func (lg *ledger) share(l layer) float64 { return lg.Rows[l].Share }
func (lg *ledger) calls(l layer) int64   { return lg.Rows[l].Calls }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
