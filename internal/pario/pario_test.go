package pario

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func memSource(n int) *MemSource {
	m := &MemSource{}
	for i := 0; i < n; i++ {
		m.Docs = append(m.Docs, []byte(fmt.Sprintf("document %d content", i)))
		m.Names = append(m.Names, fmt.Sprintf("doc%03d", i))
	}
	return m
}

func TestReadAllVisitsEveryDocumentOnce(t *testing.T) {
	for _, par := range []int{1, 3, 8, 100} {
		src := memSource(37)
		var visits [37]atomic.Int32
		err := ReadAll(src, par, func(i int, content []byte) error {
			visits[i].Add(1)
			if string(content) != fmt.Sprintf("document %d content", i) {
				t.Errorf("doc %d wrong content %q", i, content)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("par=%d: doc %d visited %d times", par, i, v)
			}
		}
	}
}

func TestReadAllEmptySource(t *testing.T) {
	if err := ReadAll(&MemSource{}, 4, func(int, []byte) error {
		t.Fatal("handler called for empty source")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAllHandlerErrorStopsEarly(t *testing.T) {
	src := memSource(1000)
	sentinel := errors.New("handler failed")
	var calls atomic.Int32
	err := ReadAll(src, 4, func(i int, _ []byte) error {
		calls.Add(1)
		if i == 10 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if c := calls.Load(); c > 900 {
		t.Fatalf("handler called %d times after failure; early stop not effective", c)
	}
}

func TestReadAllErrStopIsNotAnError(t *testing.T) {
	src := memSource(100)
	err := ReadAll(src, 2, func(i int, _ []byte) error {
		if i >= 5 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("ErrStop surfaced as error: %v", err)
	}
}

type failingSource struct {
	*MemSource
	failAt int
}

func (f *failingSource) Read(i int) ([]byte, error) {
	if i == f.failAt {
		return nil, fmt.Errorf("simulated read error at %d", i)
	}
	return f.MemSource.Read(i)
}

func TestReadAllSourceErrorPropagates(t *testing.T) {
	src := &failingSource{MemSource: memSource(50), failAt: 20}
	err := ReadAll(src, 4, func(int, []byte) error { return nil })
	if err == nil || err.Error() != "simulated read error at 20" {
		t.Fatalf("err = %v", err)
	}
}

func TestFileSourceReadsRealFiles(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 5; i++ {
		p := filepath.Join(dir, fmt.Sprintf("f%d.txt", i))
		if err := os.WriteFile(p, []byte(fmt.Sprintf("content %d", i)), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	src := &FileSource{Paths: paths}
	if src.Len() != 5 || src.Name(2) != paths[2] {
		t.Fatalf("Len/Name wrong")
	}
	var count atomic.Int32
	if err := ReadAll(src, 2, func(i int, b []byte) error {
		if string(b) != fmt.Sprintf("content %d", i) {
			return fmt.Errorf("doc %d content %q", i, b)
		}
		count.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if count.Load() != 5 {
		t.Fatalf("read %d files", count.Load())
	}
}

func TestFileSourceMissingFile(t *testing.T) {
	src := &FileSource{Paths: []string{filepath.Join(t.TempDir(), "missing.txt")}}
	err := ReadAll(src, 1, func(int, []byte) error { return nil })
	if err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestDiskSimThroughputCap(t *testing.T) {
	// 1 MB at 10 MB/s must take >= ~100ms regardless of reader count.
	d := &DiskSim{BytesPerSec: 10e6}
	const readers = 8
	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.charge(125_000, false) // 1 MB / 8 readers each
		}()
	}
	wg.Wait()
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Fatalf("8 parallel readers finished 1MB in %v; device cap not enforced", el)
	}
}

func TestDiskSimOpenLatency(t *testing.T) {
	d := &DiskSim{BytesPerSec: 1e12, OpenLatency: 20 * time.Millisecond}
	start := time.Now()
	d.charge(10, true)
	d.charge(10, true)
	if el := time.Since(start); el < 35*time.Millisecond {
		t.Fatalf("two opens took %v, want >= ~40ms", el)
	}
}

func TestDiskSimNilIsFree(t *testing.T) {
	var d *DiskSim
	start := time.Now()
	for i := 0; i < 1000; i++ {
		d.charge(1e9, true)
	}
	if el := time.Since(start); el > 50*time.Millisecond {
		t.Fatalf("nil DiskSim charged time: %v", el)
	}
}

func TestDiskSimIdleDeviceDoesNotAccumulateCredit(t *testing.T) {
	// After an idle period the device must not allow a burst "for free in
	// the past": charges start from now, not from the stale free time.
	d := &DiskSim{BytesPerSec: 1e6}
	d.charge(100_000, false) // 100ms
	time.Sleep(150 * time.Millisecond)
	start := time.Now()
	d.charge(100_000, false) // another 100ms, must block ~100ms
	if el := time.Since(start); el < 80*time.Millisecond {
		t.Fatalf("post-idle charge took %v, want ~100ms", el)
	}
}

func TestMemSourceTotalBytesAndNames(t *testing.T) {
	m := memSource(3)
	want := int64(len("document 0 content") * 3)
	if got := m.TotalBytes(); got != want {
		t.Fatalf("TotalBytes = %d, want %d", got, want)
	}
	if m.Name(1) != "doc001" {
		t.Fatalf("Name(1) = %q", m.Name(1))
	}
	unnamed := &MemSource{Docs: [][]byte{[]byte("x")}}
	if unnamed.Name(0) == "" {
		t.Fatal("fallback name empty")
	}
}

// rendezvousSource is a Source whose Reads cannot finish alone: until two
// Reads have been in flight at once, every Read waits for a second one, and
// fails only after a timeout far beyond any scheduling delay.
type rendezvousSource struct {
	*MemSource
	mu          sync.Mutex
	inFlight    int
	maxInFlight int
	met         chan struct{} // closed when two Reads first overlap
}

func (r *rendezvousSource) Read(i int) ([]byte, error) {
	r.mu.Lock()
	r.inFlight++
	if r.inFlight > r.maxInFlight {
		r.maxInFlight = r.inFlight
		if r.maxInFlight == 2 {
			close(r.met)
		}
	}
	r.mu.Unlock()
	defer func() {
		r.mu.Lock()
		r.inFlight--
		r.mu.Unlock()
	}()
	select {
	case <-r.met:
		return r.MemSource.Read(i)
	case <-time.After(10 * time.Second):
		return nil, fmt.Errorf("read %d: no other read in flight", i)
	}
}

// TestParallelInputOverlapsOpenLatency: parallel readers overlap their
// opens — the essence of Section 3.2. A Read that cannot finish until a
// second one is in flight proves the overlap without timing anything, and
// the readers never exceed their bound.
func TestParallelInputOverlapsOpenLatency(t *testing.T) {
	const readers = 8
	src := &rendezvousSource{MemSource: memSource(32), met: make(chan struct{})}
	var handled atomic.Int32
	if err := ReadAll(src, readers, func(int, []byte) error {
		handled.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if handled.Load() != 32 {
		t.Fatalf("handled %d documents, want 32", handled.Load())
	}
	if src.maxInFlight > readers {
		t.Fatalf("%d reads in flight, want at most %d", src.maxInFlight, readers)
	}
}

func TestReadAllContextPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var calls atomic.Int32
	err := ReadAllContext(ctx, memSource(100), 4, func(int, []byte) error {
		calls.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 0 {
		t.Fatalf("%d handler calls after pre-cancel", calls.Load())
	}
}

func TestReadAllContextCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int32
	err := ReadAllContext(ctx, memSource(1000), 2, func(i int, _ []byte) error {
		if calls.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if c := calls.Load(); c > 500 {
		t.Fatalf("%d documents handled after cancellation", c)
	}
}

func TestReadAllContextNormalCompletion(t *testing.T) {
	var calls atomic.Int32
	err := ReadAllContext(context.Background(), memSource(50), 3, func(int, []byte) error {
		calls.Add(1)
		return nil
	})
	if err != nil || calls.Load() != 50 {
		t.Fatalf("err=%v calls=%d", err, calls.Load())
	}
}

func TestSampleSpreadsDeterministicRanges(t *testing.T) {
	src := memSource(1000)
	subs := Sample(src, 100, 8)
	if len(subs) != 8 {
		t.Fatalf("%d chunks, want 8", len(subs))
	}
	total := 0
	prevHi := -1
	for _, s := range subs {
		if s.Lo < 0 || s.Hi > src.Len() || s.Lo >= s.Hi {
			t.Fatalf("bad range [%d,%d)", s.Lo, s.Hi)
		}
		if s.Lo <= prevHi {
			t.Fatalf("ranges overlap or regress: [%d,%d) after hi=%d", s.Lo, s.Hi, prevHi)
		}
		prevHi = s.Hi
		total += s.Len()
	}
	// ~target docs in total (each of 8 chunks rounds up to 13).
	if total < 100 || total > 110 {
		t.Fatalf("sampled %d docs, want ~100", total)
	}
	// Chunks span the corpus, not just its prefix.
	if last := subs[len(subs)-1]; last.Lo < src.Len()/2 {
		t.Fatalf("last chunk starts at %d; sample did not spread", last.Lo)
	}
	// Determinism: identical boundaries on a second call.
	again := Sample(src, 100, 8)
	for i := range subs {
		if subs[i].Lo != again[i].Lo || subs[i].Hi != again[i].Hi {
			t.Fatal("sample boundaries not deterministic")
		}
	}
}

func TestSampleWholeSourceWhenTargetCoversIt(t *testing.T) {
	src := memSource(10)
	for _, target := range []int{0, 10, 100} {
		subs := Sample(src, target, 4)
		if len(subs) != 1 || subs[0].Lo != 0 || subs[0].Hi != 10 {
			t.Fatalf("target %d: got %d ranges, want whole source", target, len(subs))
		}
	}
	// Tiny target: never more chunks than documents sampled.
	if subs := Sample(memSource(100), 2, 8); len(subs) > 2 {
		t.Fatalf("2-doc target produced %d chunks", len(subs))
	}
}

// TestWeightedBoundariesBalanceBytes: byte-weighted shard boundaries must
// keep every shard within one document of the ideal byte share — the
// straggler-avoidance guarantee count-balanced splitting cannot give on
// heavy-tailed document sizes.
func TestWeightedBoundariesBalanceBytes(t *testing.T) {
	// Heavy-tailed sizes: a few huge documents among many small ones.
	docs := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		size := 100
		if i%13 == 0 {
			size = 4000
		}
		docs = append(docs, make([]byte, size))
	}
	weights := make([]int64, len(docs))
	var total, maxDoc int64
	for i := range docs {
		weights[i] = int64(len(docs[i]))
		total += weights[i]
		if weights[i] > maxDoc {
			maxDoc = weights[i]
		}
	}
	const shards = 5
	b := WeightedBoundaries(weights, shards)
	if len(b) != shards+1 || b[0] != 0 || b[shards] != len(docs) {
		t.Fatalf("boundaries %v do not cover [0,%d)", b, len(docs))
	}
	ideal := float64(total) / shards
	for p := 0; p < shards; p++ {
		if b[p] > b[p+1] {
			t.Fatalf("boundaries regress: %v", b)
		}
		var bytes int64
		for i := b[p]; i < b[p+1]; i++ {
			bytes += weights[i]
		}
		if skew := math.Abs(float64(bytes) - ideal); skew > float64(maxDoc) {
			t.Fatalf("shard %d carries %d bytes, ideal %.0f: skew %.0f exceeds one document (%d)",
				p, bytes, ideal, skew, maxDoc)
		}
	}
	// Degenerate all-empty corpus: count-balanced fallback, full coverage.
	zb := WeightedBoundaries(make([]int64, 10), 4)
	if zb[0] != 0 || zb[4] != 10 {
		t.Fatalf("zero-weight boundaries %v", zb)
	}
}
