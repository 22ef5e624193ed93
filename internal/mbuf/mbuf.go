// Package mbuf is a size-classed, refcounted buffer pool for the mirror
// datapath — the trex-emu mbuf shape adapted to µMon: power-of-two size
// classes with per-class free lists, atomic refcounts so several views
// (e.g. the packets of one pcap batch) can pin one backing block, and
// cache-line-aware carving so adjacent buffers never share a line.
//
// Buffers are carved from chunk slabs: when a class's free list runs dry
// the pool allocates one large slab and splits it into many buffers, so
// the garbage collector sees a handful of long-lived slabs instead of one
// heap object per packet. Because class sizes are multiples of 64 bytes
// and slabs of that size are page-aligned by the Go allocator, every
// buffer starts on a cache-line boundary.
//
// Lifetime contract: Alloc returns a buffer with refcount 1. Ref adds a
// holder, Unref drops one; the buffer returns to its class free list when
// the count reaches zero. Using a buffer after its last Unref is a bug —
// the pool will hand it to the next Alloc and its bytes will be
// overwritten.
package mbuf

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"umon/internal/telemetry"
)

const (
	// MinClassBytes is the smallest buffer handed out — one cache line.
	MinClassBytes = 64
	// MaxClassBytes bounds pooled buffers; larger requests are served
	// unpooled (plain heap allocations that Unref releases to the GC).
	MaxClassBytes = 1 << 20

	minClassShift = 6
	maxClassShift = 20
	classCount    = maxClassShift - minClassShift + 1

	// slabTarget sizes chunk slabs: each refill carves roughly this many
	// bytes into buffers (at least one buffer per refill).
	slabTarget = 1 << 18
)

// PoolStats is the pool's telemetry surface. The zero value is the
// disabled path: every handle no-ops on nil (see internal/telemetry).
type PoolStats struct {
	// Hits counts allocations served from a free list.
	Hits *telemetry.Counter
	// Misses counts allocations that had to carve a new slab (or exceed
	// MaxClassBytes and go unpooled).
	Misses *telemetry.Counter
	// Recycled counts buffers returned to a free list by Unref.
	Recycled *telemetry.Counter
	// LiveHWM tracks the high-water mark of outstanding buffers.
	LiveHWM *telemetry.Gauge
}

// NewPoolStats registers the pool metric family on reg (nil reg → nil,
// the disabled path).
func NewPoolStats(reg *telemetry.Registry) *PoolStats {
	if reg == nil {
		return nil
	}
	return &PoolStats{
		Hits:     reg.Counter("umon_mbuf_alloc_hits_total", "pool allocations served from a free list"),
		Misses:   reg.Counter("umon_mbuf_alloc_misses_total", "pool allocations that carved a new slab or went unpooled"),
		Recycled: reg.Counter("umon_mbuf_recycled_total", "buffers returned to a free list"),
		LiveHWM:  reg.Gauge("umon_mbuf_live_hwm", "high-water mark of outstanding buffers"),
	}
}

// Config parameterizes a Pool.
type Config struct {
	// Stats enables pool telemetry (value-copied; nil = disabled).
	Stats *PoolStats
}

// Pool is a size-classed buffer allocator. All methods are safe for
// concurrent use.
type Pool struct {
	classes [classCount]classList
	stats   PoolStats
	live    atomic.Int64
}

type classList struct {
	mu   sync.Mutex
	free []*Buf
}

// New returns an empty pool.
func New(cfg Config) *Pool {
	p := &Pool{}
	if cfg.Stats != nil {
		p.stats = *cfg.Stats
	}
	return p
}

// Buf is one pooled buffer. The struct header lives in a slab alongside
// its siblings; Data returns the full class-sized backing.
type Buf struct {
	data  []byte
	pool  *Pool
	class int32 // -1: unpooled (GC-released)
	refs  atomic.Int32
}

// Data returns the buffer's full backing slice (class-sized, possibly
// larger than the Alloc request).
func (b *Buf) Data() []byte { return b.data }

// Ref adds one holder.
func (b *Buf) Ref() { b.refs.Add(1) }

// Unref drops one holder, returning the buffer to its free list when the
// count reaches zero. Unref below zero panics: it means a double free.
func (b *Buf) Unref() {
	n := b.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic(fmt.Sprintf("mbuf: refcount underflow (%d)", n))
	}
	p := b.pool
	p.live.Add(-1)
	if b.class < 0 {
		return // unpooled: let the GC take it
	}
	cl := &p.classes[b.class]
	cl.mu.Lock()
	cl.free = append(cl.free, b)
	cl.mu.Unlock()
	p.stats.Recycled.Inc()
}

// classFor maps a request size to its class index, or -1 for unpooled.
func classFor(n int) int {
	if n <= MinClassBytes {
		return 0
	}
	if n > MaxClassBytes {
		return -1
	}
	return bits.Len(uint(n-1)) - minClassShift
}

// Alloc returns a buffer with capacity ≥ n and refcount 1.
func (p *Pool) Alloc(n int) *Buf {
	if n < 0 {
		panic("mbuf: negative allocation")
	}
	live := p.live.Add(1)
	p.stats.LiveHWM.SetMax(live)
	ci := classFor(n)
	if ci < 0 {
		p.stats.Misses.Inc()
		b := &Buf{data: make([]byte, n), pool: p, class: -1}
		b.refs.Store(1)
		return b
	}
	cl := &p.classes[ci]
	cl.mu.Lock()
	if len(cl.free) == 0 {
		p.carve(cl, ci)
		p.stats.Misses.Inc()
	} else {
		p.stats.Hits.Inc()
	}
	b := cl.free[len(cl.free)-1]
	cl.free = cl.free[:len(cl.free)-1]
	cl.mu.Unlock()
	b.refs.Store(1)
	return b
}

// carve refills class ci's free list from one fresh slab. Called with the
// class lock held.
func (p *Pool) carve(cl *classList, ci int) {
	size := 1 << (ci + minClassShift)
	count := slabTarget / size
	if count < 1 {
		count = 1
	}
	slab := make([]byte, count*size)
	hdrs := make([]Buf, count)
	for i := 0; i < count; i++ {
		hdrs[i] = Buf{data: slab[i*size : (i+1)*size : (i+1)*size], pool: p, class: int32(ci)}
		cl.free = append(cl.free, &hdrs[i])
	}
}

// Live reports the number of outstanding (allocated, not yet fully
// unreferenced) buffers.
func (p *Pool) Live() int64 { return p.live.Load() }

// defaultPool backs package-level helpers and components constructed
// without an explicit pool.
var defaultPool = New(Config{})

// Default returns the shared process-wide pool (no telemetry).
func Default() *Pool { return defaultPool }
