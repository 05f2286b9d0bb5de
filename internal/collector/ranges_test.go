package collector

import (
	"sync/atomic"
	"testing"
)

func TestRangesCoversEveryIndexExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 5, 16, 63, 64, 65, 1000} {
			hits := make([]int32, n)
			ranges(n, workers, func(lo, hi int) {
				if lo < 0 || hi > n || lo > hi {
					t.Errorf("bad range [%d,%d) for n=%d", lo, hi, n)
				}
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&hits[i], 1)
				}
			})
			for i, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, h)
				}
			}
		}
	}
}

func TestRangesSerialRunsInline(t *testing.T) {
	var calls int
	ranges(10, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 10 {
			t.Fatalf("expected single [0,10) range, got [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("expected exactly one inline call, got %d", calls)
	}
}

func TestRangesDeterministicReduce(t *testing.T) {
	// The scrape's pattern: parallel fill of index-addressed slots, serial
	// reduce. The reduce must not depend on worker count.
	n := 257
	ref := make([]float64, n)
	ranges(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ref[i] = float64(i) * 1.000001
		}
	})
	for _, workers := range []int{2, 4, 8} {
		buf := make([]float64, n)
		ranges(n, workers, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				buf[i] = float64(i) * 1.000001
			}
		})
		var a, b float64
		for i := 0; i < n; i++ {
			a += ref[i]
			b += buf[i]
		}
		if a != b {
			t.Fatalf("workers=%d: sums differ: %v vs %v", workers, a, b)
		}
	}
}
