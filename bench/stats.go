package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the p-quantile (0..1) of an ascending slice by linear
// interpolation between the two nearest ranks; 0 for an empty slice.
func quantile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := p * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// tail returns the highest percentile of an ascending slice that still has
// ten samples beyond it, capped at p99 and floored at the median, with its
// value: with 35 batch ops that is p71, with 100 000 queries p99. A tail
// with fewer samples behind it is one slow op, not a percentile.
func tail(asc []float64) (p, v float64) {
	n := len(asc)
	if n == 0 {
		return 0, 0
	}
	p = float64(n-10) / float64(n)
	p = math.Min(0.99, math.Max(0.5, p))
	return p, quantile(asc, p)
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(xs, n=4) returns (exclusive
// method) — the statistic the acceptance driver computes.
func spread(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		j := min(max(k*(n+1)/4, 1), n-1)
		delta := float64(k*(n+1) - j*4)
		return (asc[j-1]*(4-delta) + asc[j]*delta) / 4
	}
	med := quantile(asc, 0.5)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB returns the process's high-water resident set in MiB
// (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
