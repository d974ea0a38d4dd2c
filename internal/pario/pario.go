// Package pario implements the paper's second optimization, parallel input
// (Section 3.2): reading many independent files concurrently so that disk
// and network latency overlap with computation, plus a deterministic disk
// simulator so the compute-to-I/O ratio of the paper's 2016 single-node
// testbed (local hard disk) is reproducible on arbitrary hardware.
package pario

import (
	"fmt"
	"os"
	"sync"
	"time"
)

// DiskSim models a storage device with a fixed aggregate throughput and a
// fixed per-open latency (seek + metadata). A nil *DiskSim means "real
// device, no throttling". All readers sharing a DiskSim contend for the
// same simulated device, so parallel input overlaps request latencies but
// cannot exceed device bandwidth — exactly the regime the paper's parallel-
// input analysis assumes ("The main limitation to obtain speedup here is
// bandwidth to the storage system").
type DiskSim struct {
	// BytesPerSec is the aggregate device throughput.
	BytesPerSec float64
	// OpenLatency is charged once per opened file (seek/rotation cost).
	OpenLatency time.Duration

	mu sync.Mutex
	// free is the virtual time at which the device next becomes available.
	free time.Time
}

// HDD2016 returns a simulator matching the class of device in the paper's
// testbed: a local hard disk at ~120 MB/s sequential with ~4 ms per-open
// cost.
func HDD2016() *DiskSim {
	return &DiskSim{BytesPerSec: 120e6, OpenLatency: 4 * time.Millisecond}
}

// charge blocks the caller as if it had just transferred n bytes (plus one
// open if open is true). Data transfer is serialized at the device:
// concurrent callers queue on the device's virtual free time, so aggregate
// throughput is capped at BytesPerSec no matter how many readers run. The
// per-open latency, by contrast, is charged to the requesting reader only —
// it models request-side costs (metadata lookup, kernel crossing, queue
// round trip) that independent readers overlap. This split is what makes
// parallel input pay off until the bandwidth cap is reached, "the main
// limitation to obtain speedup" in the paper's Section 3.2.
func (d *DiskSim) charge(n int64, open bool) {
	if d == nil {
		return
	}
	if open && d.OpenLatency > 0 {
		time.Sleep(d.OpenLatency)
	}
	cost := time.Duration(float64(n) / d.BytesPerSec * float64(time.Second))
	now := time.Now()
	d.mu.Lock()
	start := d.free
	if start.Before(now) {
		start = now
	}
	d.free = start.Add(cost)
	wake := d.free
	d.mu.Unlock()
	if wait := time.Until(wake); wait > 0 {
		time.Sleep(wait)
	}
}

// ChargeRead publicly charges a read of n bytes with one open, for
// components (like the ARFF reader) that stream through other interfaces.
func (d *DiskSim) ChargeRead(n int64, open bool) { d.charge(n, open) }

// Source yields named documents. Implementations must be safe for
// concurrent Read calls on distinct indices.
type Source interface {
	// Len returns the number of documents.
	Len() int
	// Name returns the name of document i.
	Name(i int) string
	// Read returns the content of document i. The returned slice must not
	// be modified by the caller.
	Read(i int) ([]byte, error)
}

// FileSource reads documents from paths on the real filesystem, optionally
// throttled by a DiskSim.
type FileSource struct {
	Paths []string
	Disk  *DiskSim
}

// Len implements Source.
func (f *FileSource) Len() int { return len(f.Paths) }

// Name implements Source.
func (f *FileSource) Name(i int) string { return f.Paths[i] }

// Read implements Source.
func (f *FileSource) Read(i int) ([]byte, error) {
	b, err := os.ReadFile(f.Paths[i])
	if err != nil {
		return nil, fmt.Errorf("pario: read %s: %w", f.Paths[i], err)
	}
	f.Disk.charge(int64(len(b)), true)
	return b, nil
}

// MemSource serves documents from memory, optionally charging a DiskSim as
// if each document were a file on that device. The synthetic corpora use
// this: document bytes are generated in memory, while the I/O cost model
// stays faithful to per-file disk reads.
type MemSource struct {
	Names []string
	Docs  [][]byte
	Disk  *DiskSim
}

// Len implements Source.
func (m *MemSource) Len() int { return len(m.Docs) }

// Name implements Source.
func (m *MemSource) Name(i int) string {
	if i < len(m.Names) {
		return m.Names[i]
	}
	return fmt.Sprintf("doc%07d", i)
}

// Read implements Source.
func (m *MemSource) Read(i int) ([]byte, error) {
	b := m.Docs[i]
	m.Disk.charge(int64(len(b)), true)
	return b, nil
}

// TotalBytes sums the document sizes of a MemSource.
func (m *MemSource) TotalBytes() int64 {
	var t int64
	for _, d := range m.Docs {
		t += int64(len(d))
	}
	return t
}

// SubSource is a contiguous [Lo, Hi) view of a Source: one shard of a
// partitioned corpus scan. It reads through to the underlying source (and
// therefore shares its DiskSim contention), so slicing a corpus into
// SubSources costs nothing until the shards are actually read.
type SubSource struct {
	// Src is the underlying source.
	Src Source
	// Lo and Hi delimit the document index range [Lo, Hi) of the shard.
	Lo, Hi int
}

// Len implements Source.
func (s *SubSource) Len() int { return s.Hi - s.Lo }

// Name implements Source.
func (s *SubSource) Name(i int) string { return s.Src.Name(s.Lo + i) }

// Read implements Source.
func (s *SubSource) Read(i int) ([]byte, error) { return s.Src.Read(s.Lo + i) }

// PartitionRange returns the [lo, hi) document range of shard p out of
// shards over n documents. Ranges are contiguous, cover [0, n) exactly,
// differ in size by at most one document, and depend only on (n, shards, p)
// — never on worker counts or timing — so any derived computation is
// deterministic for a fixed shard count.
func PartitionRange(n, shards, p int) (lo, hi int) {
	if shards < 1 {
		shards = 1
	}
	return n * p / shards, n * (p + 1) / shards
}

// Partition returns shard p of src as a SubSource using PartitionRange.
func Partition(src Source, shards, p int) *SubSource {
	lo, hi := PartitionRange(src.Len(), shards, p)
	return &SubSource{Src: src, Lo: lo, Hi: hi}
}

// WeightedBoundaries returns shard boundaries over len(weights) documents
// such that every shard carries close to total/shards weight: boundary p is
// the smallest index whose cumulative weight reaches p/shards of the total.
// The result has shards+1 entries (boundary 0 is 0, boundary shards is
// len(weights)); shard p is [b[p], b[p+1]). Boundaries are contiguous,
// cover every document exactly once, depend only on (weights, shards), and
// each shard's weight deviates from the ideal by at most the largest single
// document — the weight-balanced alternative to PartitionRange's count-
// balanced split (the K-Means loop balances shards by nonzero count).
func WeightedBoundaries(weights []int64, shards int) []int {
	n := len(weights)
	if shards < 1 {
		shards = 1
	}
	var total int64
	for _, w := range weights {
		total += w
	}
	b := make([]int, shards+1)
	b[shards] = n
	if total <= 0 {
		// Degenerate (all-empty documents): fall back to count balance.
		for p := 1; p < shards; p++ {
			b[p], _ = PartitionRange(n, shards, p)
		}
		return b
	}
	var cum int64
	p := 1
	for i, w := range weights {
		// Boundary p sits at the first index whose preceding cumulative
		// weight reaches p/shards of the total.
		for p < shards && cum*int64(shards) >= int64(p)*total {
			b[p] = i
			p++
		}
		cum += w
	}
	for ; p < shards; p++ {
		b[p] = n
	}
	// Boundaries are non-decreasing by construction; shards past the last
	// document come out empty, exactly like PartitionRange with shards > n.
	return b
}

// SourceSpec is the serializable description of a contiguous document
// shard: the shard's file paths plus its [Lo, Hi) index range within the
// full corpus. It is what replaces an in-memory Source handle on the wire
// when shard tasks ship to worker processes — the worker re-opens the same
// files instead of receiving document bytes. Paths must resolve on the
// worker (shared filesystem, or workers started in the same directory for
// relative paths).
type SourceSpec struct {
	// Paths holds the shard's document file paths in document order.
	Paths []string
	// Lo and Hi delimit the shard's document index range within the full
	// corpus, so shard-level outputs keep their global positions.
	Lo, Hi int
}

// Open returns the shard as a Source reading the described files,
// optionally throttled by a DiskSim. Document names are the paths, exactly
// as a local FileSource scan would name them, so results are independent
// of where the shard ran.
func (s *SourceSpec) Open(disk *DiskSim) Source {
	return &FileSource{Paths: s.Paths, Disk: disk}
}

// Describe returns the serializable description of src, when it has one:
// a FileSource is described by its paths, and a SubSource by the described
// sub-range of its underlying source. In-memory sources (MemSource) have
// no on-disk identity and return false — their shard tasks stay in the
// coordinator process. So does a FileSource throttled by a DiskSim: the
// simulator's contention state is per-process, so a worker reading the
// shard unthrottled would silently falsify the simulated phase timings.
func Describe(src Source) (*SourceSpec, bool) {
	switch s := src.(type) {
	case *FileSource:
		if s.Disk != nil {
			return nil, false
		}
		return &SourceSpec{Paths: s.Paths, Lo: 0, Hi: len(s.Paths)}, true
	case *SubSource:
		base, ok := Describe(s.Src)
		if !ok {
			return nil, false
		}
		return &SourceSpec{
			Paths: base.Paths[s.Lo:s.Hi],
			Lo:    base.Lo + s.Lo,
			Hi:    base.Lo + s.Hi,
		}, true
	default:
		return nil, false
	}
}

// Sample returns up to chunks contiguous SubSources spread evenly across
// src, together covering about target documents — the cheap sampling
// pre-pass the plan optimizer's statistics use. Spreading the sample over
// several ranges instead of one prefix keeps it representative when
// document sizes drift through the corpus. Boundaries depend only on
// (src.Len(), target, chunks), so a sample is deterministic; target <= 0 or
// >= the corpus returns the whole source as one range.
func Sample(src Source, target, chunks int) []*SubSource {
	n := src.Len()
	if target <= 0 || target >= n {
		return []*SubSource{{Src: src, Lo: 0, Hi: n}}
	}
	if chunks < 1 {
		chunks = 1
	}
	if chunks > target {
		chunks = target
	}
	out := make([]*SubSource, 0, chunks)
	for c := 0; c < chunks; c++ {
		// Chunk c samples [lo, lo+len) out of its stride of the corpus.
		strideLo, strideHi := PartitionRange(n, chunks, c)
		length := (target + chunks - 1) / chunks
		if length > strideHi-strideLo {
			length = strideHi - strideLo
		}
		if length == 0 {
			continue
		}
		out = append(out, &SubSource{Src: src, Lo: strideLo, Hi: strideLo + length})
	}
	return out
}
