// Package mbuf is a free list of byte blocks for the mirror datapath: a
// pcap Reader takes its read-ahead block from a Pool and gives it back at
// Close, so a process that reads feed after feed reuses its blocks instead
// of leaving one to the garbage collector per feed.
//
// Lifetime contract: Alloc hands a block to one owner, and Free hands it
// back. Using a block after Free is a bug — the next Alloc may return it
// and overwrite its bytes.
package mbuf

import (
	"sync"
	"sync/atomic"

	"umon/internal/telemetry"
)

// PoolStats is the pool's telemetry surface. The zero value is the
// disabled path: every handle no-ops on nil (see internal/telemetry).
type PoolStats struct {
	// Hits counts allocations served from the free list.
	Hits *telemetry.Counter
	// Misses counts allocations that had to make a new block.
	Misses *telemetry.Counter
	// Recycled counts blocks returned to the free list by Free.
	Recycled *telemetry.Counter
	// LiveHWM tracks the high-water mark of outstanding blocks.
	LiveHWM *telemetry.Gauge
}

// NewPoolStats registers the pool metric family on reg (nil reg → nil,
// the disabled path).
func NewPoolStats(reg *telemetry.Registry) *PoolStats {
	if reg == nil {
		return nil
	}
	return &PoolStats{
		Hits:     reg.Counter("umon_mbuf_alloc_hits_total", "pool allocations served from the free list"),
		Misses:   reg.Counter("umon_mbuf_alloc_misses_total", "pool allocations that made a new block"),
		Recycled: reg.Counter("umon_mbuf_recycled_total", "blocks returned to the free list"),
		LiveHWM:  reg.Gauge("umon_mbuf_live_hwm", "high-water mark of outstanding blocks"),
	}
}

// Config parameterizes a Pool.
type Config struct {
	// Stats enables pool telemetry (value-copied; nil = disabled).
	Stats *PoolStats
}

// Pool is a free list of blocks. All methods are safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	free  []*Buf
	stats PoolStats
	live  atomic.Int64
}

// New returns an empty pool.
func New(cfg Config) *Pool {
	p := &Pool{}
	if cfg.Stats != nil {
		p.stats = *cfg.Stats
	}
	return p
}

// Buf is one block.
type Buf struct {
	data []byte
	free bool // on its pool's free list; guarded by the pool's mu
}

// Data returns the block's bytes (possibly more than the Alloc request).
func (b *Buf) Data() []byte { return b.data }

// Alloc returns a free block of at least n bytes, or makes a new one.
func (p *Pool) Alloc(n int) *Buf {
	p.stats.LiveHWM.SetMax(p.live.Add(1))
	p.mu.Lock()
	for i := len(p.free) - 1; i >= 0; i-- {
		if b := p.free[i]; len(b.data) >= n {
			last := len(p.free) - 1
			p.free[i], p.free[last] = p.free[last], nil
			p.free = p.free[:last]
			b.free = false
			p.mu.Unlock()
			p.stats.Hits.Inc()
			return b
		}
	}
	p.mu.Unlock()
	p.stats.Misses.Inc()
	return &Buf{data: make([]byte, n)}
}

// Free returns b to the free list. Freeing a block twice panics.
func (p *Pool) Free(b *Buf) {
	p.mu.Lock()
	if b.free {
		p.mu.Unlock()
		panic("mbuf: double free")
	}
	b.free = true
	p.free = append(p.free, b)
	p.mu.Unlock()
	p.live.Add(-1)
	p.stats.Recycled.Inc()
}

// Live reports the number of outstanding (allocated, not yet freed)
// blocks.
func (p *Pool) Live() int64 { return p.live.Load() }

// defaultPool backs components constructed without an explicit pool.
var defaultPool = New(Config{})

// Default returns the shared process-wide pool (no telemetry).
func Default() *Pool { return defaultPool }
