package experiments

import (
	"bytes"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"umon/internal/parallel"
)

// TestParallelDistinctKeysOverlap is the regression test for the cache
// lock-scope bug: Sim used to hold the cache mutex for the whole build, so
// two concurrent calls with distinct keys serialized. With singleflight
// entries the builds must overlap. Overlap is observed with a build-time
// rendezvous (both builders inside onBuild at once), not wall clock.
func TestParallelDistinctKeysOverlap(t *testing.T) {
	c := NewCache(Options{DurationNs: 200_000, Seed: 42})
	var inBuild atomic.Int32
	both := make(chan struct{})
	var timedOut atomic.Bool
	c.onBuild = func(SimKey) {
		if inBuild.Add(1) == 2 {
			close(both)
		}
		select {
		case <-both:
		case <-time.After(30 * time.Second):
			timedOut.Store(true)
		}
	}
	keys := []SimKey{{"FacebookHadoop", 0.15}, {"WebSearch", 0.25}}
	var wg sync.WaitGroup
	for _, key := range keys {
		wg.Add(1)
		go func(k SimKey) {
			defer wg.Done()
			if _, err := c.Sim(k); err != nil {
				t.Errorf("Sim(%v): %v", k, err)
			}
		}(key)
	}
	wg.Wait()
	if timedOut.Load() {
		t.Fatal("builds for distinct keys did not overlap: Sim serializes on the cache lock")
	}
}

// TestParallelCacheHammer drives Cache.Sim from 16 goroutines across two
// keys: every caller must get the shared result pointer for its key and the
// build must run exactly once per key (singleflight).
func TestParallelCacheHammer(t *testing.T) {
	c := NewCache(Options{DurationNs: 200_000, Seed: 42})
	var builds atomic.Int32
	c.onBuild = func(SimKey) { builds.Add(1) }
	keys := []SimKey{{"FacebookHadoop", 0.15}, {"WebSearch", 0.25}}
	results := make([]*SimResult, 16)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := c.Sim(keys[g%2])
			if err != nil {
				t.Errorf("Sim: %v", err)
				return
			}
			results[g] = s
		}(g)
	}
	wg.Wait()
	for g, s := range results {
		if s == nil || s != results[g%2] {
			t.Fatalf("goroutine %d got a different result pointer for its key", g)
		}
	}
	if n := builds.Load(); n != 2 {
		t.Errorf("builds = %d, want exactly one per key", n)
	}
}

// TestParallelWorkerPool hammers parallel.ForEach from 16 concurrent
// callers; each invocation must cover its own index space exactly once.
func TestParallelWorkerPool(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(8))
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			const n = 200
			counts := make([]atomic.Int32, n)
			parallel.ForEach(n, func(i int) { counts[i].Add(1) })
			for i := range counts {
				if got := counts[i].Load(); got != 1 {
					t.Errorf("index %d ran %d times", i, got)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestParallelDeterminism renders Fig11 sequentially (width 1) and with a
// wide pool: the output must be byte-identical — parallelism must never
// change a table.
func TestParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("accuracy sweep twice")
	}
	c := cacheFor(t)
	render := func(workers int) string {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workers))
		tab, err := Fig11AccuracyHadoop15(c)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		tab.Fprint(&buf)
		return buf.String()
	}
	seq := render(1)
	par := render(8)
	if seq != par {
		t.Errorf("sequential and parallel renderings differ:\n--- workers=1 ---\n%s--- workers=8 ---\n%s", seq, par)
	}
}
