package simsched

import (
	"testing"
	"time"
)

func uniformTasks(n int, cpu time.Duration) []Task {
	ts := make([]Task, n)
	for i := range ts {
		ts[i] = Task{CPU: cpu}
	}
	return ts
}

func TestPerfectScalingWithoutIO(t *testing.T) {
	p := Phase{Name: "compute", Tasks: uniformTasks(1600, time.Millisecond)}
	for _, w := range []int{1, 2, 4, 8, 16} {
		_, total := Simulate(Machine{Workers: w}, []Phase{p})
		want := time.Duration(1600/w) * time.Millisecond
		if total != want {
			t.Fatalf("workers=%d: total=%v want %v", w, total, want)
		}
	}
}

func TestSerialSectionAmdahl(t *testing.T) {
	p := Phase{
		Name:   "mixed",
		Serial: 100 * time.Millisecond,
		Tasks:  uniformTasks(100, 10*time.Millisecond),
	}
	_, t1 := Simulate(Machine{Workers: 1}, []Phase{p})
	_, t10 := Simulate(Machine{Workers: 10}, []Phase{p})
	if t1 != 1100*time.Millisecond {
		t.Fatalf("t1 = %v", t1)
	}
	if t10 != 200*time.Millisecond {
		t.Fatalf("t10 = %v", t10)
	}
	// Speedup capped by the serial fraction, not by worker count.
	_, t100 := Simulate(Machine{Workers: 100}, []Phase{p})
	if t100 != 110*time.Millisecond {
		t.Fatalf("t100 = %v", t100)
	}
}

func TestDeviceBandwidthCap(t *testing.T) {
	// 100 tasks each moving 1 MB through a 100 MB/s device: >= 1s total
	// regardless of workers.
	tasks := make([]Task, 100)
	for i := range tasks {
		tasks[i] = Task{CPU: time.Microsecond, IOBytes: 1_000_000}
	}
	m := Machine{Workers: 32, Disk: &Disk{BytesPerSec: 100e6}}
	_, total := Simulate(m, []Phase{{Name: "io", Tasks: tasks}})
	if total < time.Second {
		t.Fatalf("total %v beat the device bandwidth", total)
	}
	if total > 1100*time.Millisecond {
		t.Fatalf("total %v has excessive overhead", total)
	}
}

func TestOpenLatencyOverlaps(t *testing.T) {
	// Open latency is per-worker: 64 opens of 10ms on 8 workers ~ 80ms,
	// not 640ms.
	tasks := make([]Task, 64)
	for i := range tasks {
		tasks[i] = Task{CPU: 0, IOBytes: 1, IOOpens: 1}
	}
	m := Machine{Workers: 8, Disk: &Disk{BytesPerSec: 1e12, OpenLatency: 10 * time.Millisecond}}
	_, total := Simulate(m, []Phase{{Name: "open", Tasks: tasks}})
	if total < 75*time.Millisecond || total > 110*time.Millisecond {
		t.Fatalf("total %v, want ~80ms", total)
	}
}

func TestSkewedTasksLimitSpeedup(t *testing.T) {
	// One giant task bounds the makespan from below.
	tasks := append(uniformTasks(100, time.Millisecond), Task{CPU: 500 * time.Millisecond})
	_, total := Simulate(Machine{Workers: 16}, []Phase{{Name: "skew", Tasks: tasks}})
	if total < 500*time.Millisecond {
		t.Fatalf("total %v below critical path", total)
	}
}

func TestPhasesAreBarriers(t *testing.T) {
	p1 := Phase{Name: "a", Tasks: uniformTasks(10, 10*time.Millisecond)}
	p2 := Phase{Name: "b", Tasks: uniformTasks(10, 10*time.Millisecond)}
	bd, total := Simulate(Machine{Workers: 10}, []Phase{p1, p2})
	if total != 20*time.Millisecond {
		t.Fatalf("total = %v, want 20ms", total)
	}
	if bd.Get("a") != 10*time.Millisecond || bd.Get("b") != 10*time.Millisecond {
		t.Fatalf("breakdown: a=%v b=%v", bd.Get("a"), bd.Get("b"))
	}
}

func TestMoreWorkersNeverSlower(t *testing.T) {
	tasks := make([]Task, 257)
	for i := range tasks {
		tasks[i] = Task{CPU: time.Duration(1+i%17) * time.Millisecond, IOBytes: int64(i%5) * 1000}
		if i%3 == 0 {
			tasks[i].IOOpens = 1
		}
	}
	m := func(w int) Machine {
		return Machine{Workers: w, Disk: &Disk{BytesPerSec: 50e6, OpenLatency: time.Millisecond}}
	}
	prev := time.Duration(1<<62 - 1)
	for _, w := range []int{1, 2, 4, 8, 16, 32} {
		_, total := Simulate(m(w), []Phase{{Name: "x", Tasks: tasks}})
		// Greedy scheduling is not strictly monotone in theory, but within
		// 5% it must be here.
		if float64(total) > float64(prev)*1.05 {
			t.Fatalf("workers=%d slower than fewer workers: %v > %v", w, total, prev)
		}
		prev = total
	}
}

func TestSerialIOCharged(t *testing.T) {
	p := Phase{Name: "out", Serial: 10 * time.Millisecond, SerialIOBytes: 100_000_000, SerialIOOpens: 1}
	m := Machine{Workers: 16, Disk: &Disk{BytesPerSec: 100e6, OpenLatency: 5 * time.Millisecond}}
	_, total := Simulate(m, []Phase{p})
	want := 10*time.Millisecond + time.Second + 5*time.Millisecond
	if total != want {
		t.Fatalf("total = %v, want %v", total, want)
	}
}

func TestNilDiskFreeIO(t *testing.T) {
	p := Phase{Name: "x", Tasks: []Task{{CPU: time.Millisecond, IOBytes: 1 << 40, IOOpens: 1}}}
	_, total := Simulate(Machine{Workers: 1}, []Phase{p})
	if total != time.Millisecond {
		t.Fatalf("nil disk charged IO: %v", total)
	}
}

func TestZeroWorkersPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Simulate(Machine{Workers: 0}, nil)
}

func TestSpeedupCurveShape(t *testing.T) {
	// A workload with enough uniform tasks should show near-linear speedup
	// early and saturate by task-count/worker granularity — the qualitative
	// shape of Figures 1 and 2.
	p := Phase{Name: "x", Tasks: uniformTasks(64, time.Millisecond)}
	_, t1 := Simulate(Machine{Workers: 1}, []Phase{p})
	_, t16 := Simulate(Machine{Workers: 16}, []Phase{p})
	sp := float64(t1) / float64(t16)
	if sp < 15.9 || sp > 16.1 {
		t.Fatalf("speedup at 16 workers = %v", sp)
	}
}
