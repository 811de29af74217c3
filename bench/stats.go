package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

var nan = math.NaN()

// median returns the middle value of xs (mean of the two middle values for an
// even count). xs is not modified. NaN for an empty slice, so a metric nobody
// measured fails the finite-value check instead of reading as zero.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between order statistics, the same rule as
// Python's statistics.quantiles(method="inclusive").
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return nan
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo))
}

// nsQuantile is quantile for a sorted slice of nanosecond samples, without
// interpolation: it returns a latency that was actually observed.
func nsQuantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// canarySteps is the length of the canary loop: about half a millisecond of
// dependent integer work on one goroutine, touching no memory.
const canarySteps = 1 << 19

var canarySink uint64

// canary times a fixed single-goroutine xorshift loop. It is benchmark code
// and identical on every commit, so a slow canary means the host was busy, not
// the program; the runner uses it to set aside rounds a neighbour disturbed.
func canary() time.Duration {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < canarySteps; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	canarySink += x
	return time.Since(start)
}

// selfCPU is the user+system CPU time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvDuration(ru.Utime) + tvDuration(ru.Stime)
}

// selfPeakRSSMB is this process's peak resident set size.
func selfPeakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nan
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func tvDuration(tv syscall.Timeval) time.Duration {
	return time.Duration(tv.Sec)*time.Second + time.Duration(tv.Usec)*time.Microsecond
}

// procCPU reads the user+system CPU time of a live child from /proc. The
// kernel counts in clock ticks (100 per second on Linux), which is fine over a
// window of seconds.
func procCPU(pid int) (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; fields are
	// counted from after the closing one. utime and stime are fields 14, 15.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	const tick = time.Second / 100
	return time.Duration(ut+st) * tick, nil
}

// splitmix is the benchmark's seeded generator: every input a workload sees
// (key choices, initial values) is drawn from one of these.
type splitmix uint64

func (s *splitmix) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
