package main

import (
	"bufio"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// cpuTime returns the process's user+sys CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the process's peak resident set in MB (ru_maxrss is
// in KiB on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// stealSample is one read of the host-wide CPU counters in /proc/stat.
type stealSample struct{ steal, total uint64 }

// readSteal reads the aggregate "cpu" line of /proc/stat; ok is false
// where the file is unavailable.
func readSteal() (s stealSample, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return s, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 9 || fields[0] != "cpu" {
			continue
		}
		for i, fv := range fields[1:] {
			v, err := strconv.ParseUint(fv, 10, 64)
			if err != nil {
				return s, false
			}
			if i < 8 { // user..steal; guest time is already in user
				s.total += v
			}
			if i == 7 {
				s.steal = v
			}
		}
		return s, true
	}
	return s, false
}

// stealPct is the share of host CPU time stolen between two reads.
func stealPct(a, b stealSample) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// heapStats reads the cumulative heap allocation (bytes and objects)
// and GC cycle counts.
func heapStats() (allocBytes, allocObjects, gcCycles uint64) {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/cycles/total:gc-cycles"},
	}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

// allocCount reads the cumulative count of heap objects allocated.
func allocCount() uint64 {
	_, n, _ := heapStats()
	return n
}

// quantile returns the q-quantile of sorted xs by linear interpolation
// between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (pos-float64(lo))*(sorted[hi]-sorted[lo])
}

// median returns the median of xs without modifying it.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// msOf converts durations to float milliseconds, sorted ascending.
func msOf(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	sort.Float64s(out)
	return out
}
