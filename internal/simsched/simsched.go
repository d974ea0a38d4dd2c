// Package simsched is a discrete-event simulator of the paper's execution
// platform: a multi-core node with a work-stealing thread pool and a local
// disk. It replays *measured* task costs on a configurable number of
// virtual cores in virtual time.
//
// Why it exists: the paper's thread-count sweeps (Figures 1-4) ran on a
// many-core Xeon node. When this library runs on a machine with fewer cores
// than the sweep's x-axis (including single-core CI hosts), real threads
// cannot exhibit the paper's scaling behavior at all. Following the
// reproduction ground rules, the missing hardware is simulated: a plan runs
// once with one task in flight at a time (workflow.Context.Serial) under an
// obs.Tracer, and FromTrace turns its spans into phases of parallel Tasks
// (each with its measured CPU duration and its I/O demand) and serial
// sections. Simulate then computes the makespan those tasks would have on
// an n-worker node fed by a bandwidth-limited disk, using the same greedy
// dynamic scheduling the real par.Pool performs and the same device model
// pario.DiskSim enforces.
//
// Everything about the workload is measured, not assumed; only the
// interleaving is modeled. On a machine with enough physical cores the
// benchmarks can also run in "real" mode and measure wall-clock directly.
package simsched

import (
	"fmt"
	"time"

	"hpa/internal/metrics"
)

// Task is one unit of parallel work: a measured CPU burst plus optional
// I/O demand (bytes through the shared device, and per-open latencies
// charged to the issuing worker only).
type Task struct {
	// CPU is the measured compute time of the task.
	CPU time.Duration
	// IOBytes is the data volume the task moves through the device.
	IOBytes int64
	// IOOpens charges that many per-open latencies before the transfer.
	IOOpens int
}

// Phase is a workflow phase: an optional serial prologue (with optional
// serial I/O) followed by independent parallel tasks. Phases execute in
// order with a barrier between them, matching the operators' structure.
type Phase struct {
	// Name labels the phase with the paper's figure legend name
	// ("input+wc", "transform", "kmeans", ...).
	Name string
	// Serial is measured time that cannot be parallelized (e.g. dictionary
	// finalization, centroid merging, ARFF writing CPU).
	Serial time.Duration
	// SerialIOBytes is data moved through the device during the serial
	// section (e.g. the ARFF file of the discrete workflow).
	SerialIOBytes int64
	// SerialIOOpens counts per-open latencies in the serial section.
	SerialIOOpens int
	// Tasks are the independent parallel work units.
	Tasks []Task
}

// Disk is the virtual device: same parameters as pario.DiskSim, but applied
// in virtual time.
type Disk struct {
	// BytesPerSec is the aggregate device throughput. Zero means I/O is
	// free (in-memory source).
	BytesPerSec float64
	// OpenLatency is charged per open to the issuing worker.
	OpenLatency time.Duration
}

// Machine is the simulated node.
type Machine struct {
	// Workers is the thread count (the x-axis of the paper's figures).
	Workers int
	// Disk is the storage device; nil disables I/O cost entirely.
	Disk *Disk
}

// Simulate returns the simulated wall-clock duration of each phase on m,
// as a Breakdown keyed by phase name, plus the total.
//
// Scheduling model: tasks are pulled greedily in submission order by the
// earliest-available worker (dynamic self-scheduling — the same policy as
// par.Pool's deque+steal at chunk granularity). The device serializes
// transfers: a task's transfer begins when both the worker and the device
// are free, exactly like pario.DiskSim's virtual free time.
func Simulate(m Machine, phases []Phase) (*metrics.Breakdown, time.Duration) {
	if m.Workers < 1 {
		panic(fmt.Sprintf("simsched: %d workers", m.Workers))
	}
	bd := metrics.NewBreakdown()
	var total time.Duration
	for _, p := range phases {
		d := simulatePhase(m, p)
		bd.Add(p.Name, d)
		total += d
	}
	return bd, total
}

func simulatePhase(m Machine, p Phase) time.Duration {
	var t time.Duration // phase-local virtual clock origin

	// Serial prologue on one worker, including its device time.
	t += p.Serial
	if m.Disk != nil {
		t += time.Duration(float64(p.SerialIOOpens)) * m.Disk.OpenLatency
		if m.Disk.BytesPerSec > 0 {
			t += time.Duration(float64(p.SerialIOBytes) / m.Disk.BytesPerSec * float64(time.Second))
		}
	}
	if len(p.Tasks) == 0 {
		return t
	}

	// Parallel section: greedy list scheduling onto Workers virtual cores
	// with a serialized device.
	workers := make([]time.Duration, m.Workers)
	for i := range workers {
		workers[i] = t
	}
	deviceFree := t
	for _, task := range p.Tasks {
		// Earliest-available worker pulls the next task (self-scheduling).
		w := 0
		for i := 1; i < len(workers); i++ {
			if workers[i] < workers[w] {
				w = i
			}
		}
		now := workers[w]
		if m.Disk != nil {
			now += time.Duration(task.IOOpens) * m.Disk.OpenLatency
			if task.IOBytes > 0 && m.Disk.BytesPerSec > 0 {
				start := now
				if deviceFree > start {
					start = deviceFree
				}
				xfer := time.Duration(float64(task.IOBytes) / m.Disk.BytesPerSec * float64(time.Second))
				deviceFree = start + xfer
				now = deviceFree
			}
		}
		now += task.CPU
		workers[w] = now
	}
	end := workers[0]
	for _, w := range workers[1:] {
		if w > end {
			end = w
		}
	}
	return end
}
