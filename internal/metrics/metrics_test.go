package metrics

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestBreakdownAccumulates(t *testing.T) {
	b := NewBreakdown()
	b.Add("input+wc", 100*time.Millisecond)
	b.Add("kmeans", 50*time.Millisecond)
	b.Add("input+wc", 25*time.Millisecond)
	if got := b.Get("input+wc"); got != 125*time.Millisecond {
		t.Fatalf("input+wc = %v, want 125ms", got)
	}
	if got := b.Total(); got != 175*time.Millisecond {
		t.Fatalf("total = %v, want 175ms", got)
	}
}

func TestBreakdownOrderIsFirstRecorded(t *testing.T) {
	b := NewBreakdown()
	for _, p := range []string{"c", "a", "b", "a"} {
		b.Add(p, time.Millisecond)
	}
	got := b.Phases()
	want := []string{"c", "a", "b"}
	if len(got) != len(want) {
		t.Fatalf("phases = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("phases = %v, want %v", got, want)
		}
	}
}

func TestBreakdownTimeMeasures(t *testing.T) {
	b := NewBreakdown()
	b.Time("sleep", func() { time.Sleep(20 * time.Millisecond) })
	if got := b.Get("sleep"); got < 15*time.Millisecond {
		t.Fatalf("measured %v, want >= ~20ms", got)
	}
}

func TestBreakdownTimeErrPropagates(t *testing.T) {
	b := NewBreakdown()
	sentinel := errTest("x")
	if err := b.TimeErr("p", func() error { return sentinel }); err != sentinel {
		t.Fatalf("err = %v, want sentinel", err)
	}
	if _, ok := b.times["p"]; !ok {
		t.Fatal("failed phase not recorded")
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestBreakdownMerge(t *testing.T) {
	a, b := NewBreakdown(), NewBreakdown()
	a.Add("x", time.Second)
	b.Add("x", time.Second)
	b.Add("y", 2*time.Second)
	a.Merge(b)
	if a.Get("x") != 2*time.Second || a.Get("y") != 2*time.Second {
		t.Fatalf("merge wrong: x=%v y=%v", a.Get("x"), a.Get("y"))
	}
}

func TestSpeedupSeries(t *testing.T) {
	s := NewSpeedupSeries("NSF abstracts")
	s.Record(16, 2*time.Second)
	s.Record(1, 16*time.Second)
	s.Record(4, 4*time.Second)
	if sp, ok := s.Speedup(16); !ok || sp != 8 {
		t.Fatalf("speedup(16) = %v,%v, want 8,true", sp, ok)
	}
	if sp, ok := s.Speedup(4); !ok || sp != 4 {
		t.Fatalf("speedup(4) = %v,%v want 4,true", sp, ok)
	}
	th := s.Threads()
	if th[0] != 1 || th[1] != 4 || th[2] != 16 {
		t.Fatalf("threads not sorted: %v", th)
	}
	if s.MaxSpeedup() != 8 {
		t.Fatalf("max speedup = %v, want 8", s.MaxSpeedup())
	}
}

func TestSpeedupSeriesOverwrite(t *testing.T) {
	s := NewSpeedupSeries("x")
	s.Record(1, time.Second)
	s.Record(1, 2*time.Second)
	if d, _ := s.Time(1); d != 2*time.Second {
		t.Fatalf("time(1) = %v after overwrite, want 2s", d)
	}
	if len(s.Threads()) != 1 {
		t.Fatalf("duplicate thread entries: %v", s.Threads())
	}
}

func TestSpeedupMissingBaseline(t *testing.T) {
	s := NewSpeedupSeries("x")
	s.Record(8, time.Second)
	if _, ok := s.Speedup(8); ok {
		t.Fatal("speedup computed without a 1-thread baseline")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Input", "Documents", "Bytes")
	tb.AddRow("Mix", "23432", "62.8 MB")
	tb.AddRow("NSF Abstracts", "101483", "310.9 MB")
	out := tb.String()
	if !strings.Contains(out, "NSF Abstracts") || !strings.Contains(out, "62.8 MB") {
		t.Fatalf("table missing cells:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines, want 4:\n%s", len(lines), out)
	}
	if len(lines[0]) != len(lines[1]) {
		t.Fatalf("separator width mismatch:\n%s", out)
	}
}

func TestTableShortRowPadded(t *testing.T) {
	tb := NewTable("a", "b", "c")
	tb.AddRow("only")
	if tb.Rows() != 1 {
		t.Fatal("row not added")
	}
	_ = tb.String() // must not panic
}

func TestFormatHelpers(t *testing.T) {
	if got := FormatBytes(65_865_318); got != "62.8 MB" {
		t.Fatalf("FormatBytes = %q, want 62.8 MB", got)
	}
	if got := FormatBytes(512); got != "512 B" {
		t.Fatalf("FormatBytes = %q", got)
	}
	if got := FormatBytes(3 << 30); got != "3.0 GB" {
		t.Fatalf("FormatBytes = %q", got)
	}
	if got := FormatSpeedup(3.841); got != "3.84x" {
		t.Fatalf("FormatSpeedup = %q", got)
	}
	if got := FormatDuration(1234 * time.Millisecond); got != "1.234s" {
		t.Fatalf("FormatDuration = %q", got)
	}
	for d, want := range map[time.Duration]string{
		3314 * time.Nanosecond:    "3.314µs",
		54_463_821:                "54.46ms",
		1_234_567_890:             "1.235s",
		999_999 * time.Nanosecond: "999.999µs",
	} {
		if got := FormatEstimate(d); got != want {
			t.Errorf("FormatEstimate(%d) = %q, want %q", int64(d), got, want)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow("plain", "with,comma")
	tb.AddRow("q\"uote", "line")
	got := tb.CSV()
	want := "a,b\nplain,\"with,comma\"\n\"q\"\"uote\",line\n"
	if got != want {
		t.Fatalf("CSV = %q, want %q", got, want)
	}
}

// TestBreakdownGuardPanicsOnConcurrentMutation pins the documented
// contract: a Breakdown is not safe for concurrent use, and the guard
// turns a silent data race into a deterministic panic. Simulated by
// holding the guard open (as a paused mutator would) and mutating again.
func TestBreakdownGuardPanicsOnConcurrentMutation(t *testing.T) {
	b := NewBreakdown()
	b.enter() // a concurrent mutator mid-update
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("concurrent Add did not panic")
		} else if !strings.Contains(fmt.Sprint(r), "concurrent Breakdown mutation") {
			t.Fatalf("wrong panic: %v", r)
		}
	}()
	b.Add("phase", time.Millisecond)
}

// TestBreakdownGuardAllowsNesting: the timing helpers run their callback
// outside the guarded window, so Add inside Time must not trip the guard,
// and sequential use never does.
func TestBreakdownGuardAllowsNesting(t *testing.T) {
	b := NewBreakdown()
	b.Time("outer", func() {
		b.Add("inner", time.Millisecond)
	})
	b.Add("after", time.Millisecond)
	if b.Get("inner") != time.Millisecond || b.Get("after") != time.Millisecond {
		t.Fatal("guard corrupted sequential accounting")
	}
}
