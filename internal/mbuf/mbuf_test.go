package mbuf

import (
	"sync"
	"testing"

	"umon/internal/telemetry"
)

// TestRecycleReturnsSameBuffer: a freed block goes to the next Alloc it is
// big enough for, and Live counts blocks out of the pool.
func TestRecycleReturnsSameBuffer(t *testing.T) {
	p := New(Config{})
	b := p.Alloc(100)
	if len(b.Data()) != 100 {
		t.Fatalf("Alloc(100) has %d bytes", len(b.Data()))
	}
	p.Free(b)
	big := p.Alloc(101)
	if big == b {
		t.Error("Alloc(101) reused a 100-byte block")
	}
	b2 := p.Alloc(64)
	if b2 != b {
		t.Error("freed block was not reused")
	}
	if p.Live() != 2 {
		t.Errorf("live = %d, want 2", p.Live())
	}
	p.Free(b2)
	p.Free(big)
	if p.Live() != 0 {
		t.Errorf("live = %d, want 0", p.Live())
	}
}

// TestUnrefUnderflowPanics: freeing a block twice panics.
func TestUnrefUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("double Free must panic")
		}
	}()
	p := New(Config{})
	b := p.Alloc(64)
	p.Free(b)
	p.Free(b)
}

func TestPoolStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Config{Stats: NewPoolStats(reg)})
	a := p.Alloc(200) // miss: the free list is empty
	b := p.Alloc(200) // miss
	p.Free(a)
	p.Free(b)
	c := p.Alloc(200) // hit
	d := p.Alloc(100) // hit: a 200-byte block serves 100
	p.Free(c)
	p.Free(d)
	if v := reg.Value("umon_mbuf_alloc_misses_total"); v != 2 {
		t.Errorf("misses = %d, want 2", v)
	}
	if v := reg.Value("umon_mbuf_alloc_hits_total"); v != 2 {
		t.Errorf("hits = %d, want 2", v)
	}
	if v := reg.Value("umon_mbuf_recycled_total"); v != 4 {
		t.Errorf("recycled = %d, want 4", v)
	}
	if v := reg.Value("umon_mbuf_live_hwm"); v != 2 {
		t.Errorf("live hwm = %d, want 2", v)
	}
}

// TestConcurrentAllocUnref hammers one pool from many goroutines (the
// race-detector target): concurrent Alloc/Free must neither corrupt the
// free list nor lose a block, and no block is handed to two owners.
func TestConcurrentAllocUnref(t *testing.T) {
	p := New(Config{})
	const workers, rounds = 8, 2000
	var mu sync.Mutex
	blocks := map[*Buf]bool{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				b := p.Alloc(64 << (uint(seed+i) % 4))
				b.Data()[0] = byte(seed)
				b.Data()[len(b.Data())-1] = byte(seed)
				if i%3 == 0 {
					mu.Lock()
					blocks[b] = true
					mu.Unlock()
				}
				if b.Data()[0] != byte(seed) || b.Data()[len(b.Data())-1] != byte(seed) {
					t.Errorf("block shared by two owners")
				}
				p.Free(b)
			}
		}(w)
	}
	wg.Wait()
	if p.Live() != 0 {
		t.Errorf("live = %d after all workers freed", p.Live())
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	onList := map[*Buf]bool{}
	for _, b := range p.free {
		onList[b] = true
	}
	for b := range blocks {
		if !onList[b] {
			t.Fatal("a freed block is missing from the free list")
		}
	}
}
