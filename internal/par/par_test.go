package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestNewPoolRejectsZeroWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewPool(0) did not panic")
		}
	}()
	NewPool(0)
}

func TestForCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 8} {
		p := NewPool(workers)
		const n = 10_000
		var hits [n]atomic.Int32
		p.For(0, n, 0, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
		p.Close()
	}
}

func TestForEmptyAndReversedRanges(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	ran := false
	p.For(5, 5, 0, func(int) { ran = true })
	p.For(7, 3, 0, func(int) { ran = true })
	if ran {
		t.Fatal("body ran for empty/reversed range")
	}
}

func TestForRangeSubrangesPartitionInterval(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const lo, hi = 13, 4_097
	var mu sync.Mutex
	var ranges [][2]int
	p.ForRange(lo, hi, 100, func(a, b int) {
		mu.Lock()
		ranges = append(ranges, [2]int{a, b})
		mu.Unlock()
	})
	seen := make([]bool, hi)
	for _, r := range ranges {
		if r[0] >= r[1] {
			t.Fatalf("empty subrange %v", r)
		}
		if r[1]-r[0] > 100 {
			t.Fatalf("subrange %v exceeds grain", r)
		}
		for i := r[0]; i < r[1]; i++ {
			if seen[i] {
				t.Fatalf("index %d covered twice", i)
			}
			seen[i] = true
		}
	}
	for i := lo; i < hi; i++ {
		if !seen[i] {
			t.Fatalf("index %d not covered", i)
		}
	}
}

func TestParallelSumMatchesSequential(t *testing.T) {
	p := NewPool(runtime.NumCPU())
	defer p.Close()
	f := func(n uint16) bool {
		size := int(n%5000) + 1
		var want int64
		for i := 0; i < size; i++ {
			want += int64(i * i)
		}
		var got atomic.Int64
		p.ForRange(0, size, 0, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i * i)
			}
			got.Add(local)
		})
		return got.Load() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestGroupSpawnWait(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := p.NewGroup()
	var count atomic.Int64
	for i := 0; i < 1000; i++ {
		g.Spawn(func() { count.Add(1) })
	}
	g.Wait()
	if count.Load() != 1000 {
		t.Fatalf("count = %d, want 1000", count.Load())
	}
}

func TestGroupNestedSpawn(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	g := p.NewGroup()
	var count atomic.Int64
	for i := 0; i < 10; i++ {
		g.Spawn(func() {
			for j := 0; j < 10; j++ {
				g.Spawn(func() { count.Add(1) })
			}
		})
	}
	g.Wait()
	if count.Load() != 100 {
		t.Fatalf("count = %d, want 100", count.Load())
	}
}

func TestNestedParallelFor(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var count atomic.Int64
	p.For(0, 8, 1, func(int) {
		p.For(0, 8, 1, func(int) { count.Add(1) })
	})
	if count.Load() != 64 {
		t.Fatalf("count = %d, want 64", count.Load())
	}
}

func TestGroupPanicPropagates(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := p.NewGroup()
	g.Spawn(func() { panic("boom") })
	defer func() {
		if recover() == nil {
			t.Fatal("panic did not propagate from Wait")
		}
	}()
	g.Wait()
}

func TestGroupReusableAfterPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	g := p.NewGroup()
	g.Spawn(func() { panic("boom") })
	func() {
		defer func() { recover() }()
		g.Wait()
	}()
	var ok atomic.Bool
	g.Spawn(func() { ok.Store(true) })
	g.Wait() // must not re-panic with the stale value
	if !ok.Load() {
		t.Fatal("task after recovered panic did not run")
	}
}

func TestReducerExclusiveViews(t *testing.T) {
	p := NewPool(8)
	defer p.Close()
	type view struct {
		inUse atomic.Bool
		sum   int64
	}
	r := NewReducer(func() *view { return &view{} })
	const n = 100_000
	p.ForRange(0, n, 0, func(lo, hi int) {
		v := r.Claim()
		defer r.Release(v)
		if !v.inUse.CompareAndSwap(false, true) {
			t.Error("view claimed concurrently by two strands")
			return
		}
		for i := lo; i < hi; i++ {
			v.sum += int64(i)
		}
		v.inUse.Store(false)
	})
	var total int64
	for _, v := range r.Views() {
		total += v.sum
	}
	if want := int64(n) * (n - 1) / 2; total != want {
		t.Fatalf("total = %d, want %d", total, want)
	}
	if got := r.Len(); got > 9 {
		t.Fatalf("created %d views for 8 workers + 1 waiter", got)
	}
}

func TestGrainSizeBounds(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	if g := p.GrainSize(0); g != 1 {
		t.Fatalf("GrainSize(0) = %d, want 1", g)
	}
	if g := p.GrainSize(3200); g != 100 {
		t.Fatalf("GrainSize(3200) = %d, want 100", g)
	}
}

func TestCloseDrainsOutstandingWork(t *testing.T) {
	p := NewPool(4)
	var count atomic.Int64
	g := p.NewGroup()
	for i := 0; i < 100; i++ {
		g.Spawn(func() { count.Add(1) })
	}
	g.Wait()
	p.Close()
	if count.Load() != 100 {
		t.Fatalf("count = %d after Close, want 100", count.Load())
	}
}

func BenchmarkForOverhead(b *testing.B) {
	p := NewPool(runtime.NumCPU())
	defer p.Close()
	data := make([]float64, 1<<16)
	for i := range data {
		data[i] = float64(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum atomic.Int64
		p.ForRange(0, len(data), 0, func(lo, hi int) {
			var s float64
			for j := lo; j < hi; j++ {
				s += data[j]
			}
			sum.Add(int64(s))
		})
	}
}

func TestManyGroupsConcurrently(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var total atomic.Int64
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			grp := p.NewGroup()
			for i := 0; i < 200; i++ {
				grp.Spawn(func() { total.Add(1) })
			}
			grp.Wait()
		}()
	}
	wg.Wait()
	if total.Load() != 16*200 {
		t.Fatalf("total = %d", total.Load())
	}
}

func TestConcurrentForLoopsFromManyGoroutines(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var wg sync.WaitGroup
	var sum atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.For(0, 1000, 10, func(i int) { sum.Add(int64(i)) })
		}()
	}
	wg.Wait()
	if want := int64(8) * 1000 * 999 / 2; sum.Load() != want {
		t.Fatalf("sum = %d, want %d", sum.Load(), want)
	}
}

func TestSkewedWorkloadBalances(t *testing.T) {
	// One huge iteration among many tiny ones: wall-clock should be far
	// below the serial sum when workers steal the remaining range.
	p := NewPool(4)
	defer p.Close()
	work := func(n int) int64 {
		var s int64
		for i := 0; i < n; i++ {
			s += int64(i ^ (i >> 3))
		}
		return s
	}
	var sink atomic.Int64
	p.For(0, 64, 1, func(i int) {
		n := 2_000
		if i == 0 {
			n = 400_000
		}
		sink.Add(work(n))
	})
	if sink.Load() == 0 {
		t.Fatal("no work done")
	}
}

func TestDequeGrowthUnderBurst(t *testing.T) {
	p := NewPool(1) // single worker: all spawns pile onto one deque
	defer p.Close()
	g := p.NewGroup()
	var count atomic.Int64
	for i := 0; i < 100_000; i++ {
		g.Spawn(func() { count.Add(1) })
	}
	g.Wait()
	if count.Load() != 100_000 {
		t.Fatalf("count = %d", count.Load())
	}
}
