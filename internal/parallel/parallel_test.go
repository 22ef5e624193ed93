package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// setWorkers sets the pool width — GOMAXPROCS — for the rest of the test.
func setWorkers(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(); got != runtime.GOMAXPROCS(0) {
		t.Errorf("default Workers() = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	t.Setenv("UMON_WORKERS", "3")
	setWorkers(t, 7)
	if got := Workers(); got != 7 {
		t.Errorf("Workers() = %d, want GOMAXPROCS 7 whatever the environment says", got)
	}
}

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, w := range []int{1, 2, 16} {
		setWorkers(t, w)
		const n = 1000
		counts := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&counts[i], 1) })
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", w, i, c)
			}
		}
	}
}

func TestForEachZeroAndTiny(t *testing.T) {
	ForEach(0, func(int) { t.Fatal("must not run") })
	ran := false
	ForEach(1, func(i int) { ran = i == 0 })
	if !ran {
		t.Fatal("single iteration skipped")
	}
}

func TestForEachErrReturnsLowestIndex(t *testing.T) {
	setWorkers(t, 8)
	errA := errors.New("a")
	err := ForEachErr(100, func(i int) error {
		switch i {
		case 7:
			return errA
		case 60:
			return errors.New("b")
		}
		return nil
	})
	if err != errA {
		t.Errorf("got %v, want lowest-index error %v", err, errA)
	}
	if err := ForEachErr(10, func(int) error { return nil }); err != nil {
		t.Errorf("unexpected error %v", err)
	}
}

// TestForEachConcurrentCallers hammers the pool from 16 goroutines at once
// (run under -race via the Makefile test-race target).
func TestForEachConcurrentCallers(t *testing.T) {
	setWorkers(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			sums := make([]int, 64)
			ForEach(len(sums), func(i int) { sums[i] = i * i })
			for i, s := range sums {
				if s != i*i {
					panic(fmt.Sprintf("goroutine %d: slot %d = %d", g, i, s))
				}
			}
		}(g)
	}
	wg.Wait()
}
