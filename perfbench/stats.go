package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// median returns the median of xs, averaging the two middle values of
// an even count. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// latencyHist is a histogram of op latencies in log-spaced buckets
// 0.1% wide. It records every op of a long run in constant memory, so
// the benchmark's own bookkeeping neither grows the process's RSS nor
// changes how often the program's garbage collector runs.
type latencyHist struct {
	counts []uint64
	n      uint64
}

const (
	histMinNs   = 100 // bucket 0 starts at 100 ns; shorter ops land there
	histGrowth  = 1.001
	histBuckets = 21000 // up to 100 * 1.001^21000 ns, about 130 s
)

var lnHistGrowth = math.Log(histGrowth)

func newLatencyHist() *latencyHist {
	return &latencyHist{counts: make([]uint64, histBuckets)}
}

func (h *latencyHist) add(d time.Duration) {
	i := 0
	if d > histMinNs {
		i = int(math.Log(float64(d)/histMinNs) / lnHistGrowth)
	}
	if i >= histBuckets {
		i = histBuckets - 1
	}
	h.counts[i]++
	h.n++
}

func (h *latencyHist) merge(o *latencyHist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantileMs returns the q-quantile in ms, interpolating
// geometrically inside the bucket that holds rank q*(n-1).
func (h *latencyHist) quantileMs(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	rank := q * float64(h.n-1)
	var below float64
	for i, c := range h.counts {
		if c == 0 || below+float64(c) <= rank {
			below += float64(c)
			continue
		}
		frac := (rank - below + 0.5) / float64(c)
		return histMinNs * math.Pow(histGrowth, float64(i)+frac) / 1e6
	}
	return math.NaN()
}

func total(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// rateWindows turns completed work into elements-per-second readings
// over consecutive windows of at least rateWindow of timed wall time.
// Their median is the throughput the benchmark reports: a stall that
// hits one window, such as the host lending the CPU elsewhere, moves
// it less than it moves the run's mean.
type rateWindows struct {
	rates           []float64
	curElems, elems float64
	curBusy, busy   time.Duration
}

const rateWindow = time.Second

func (w *rateWindows) add(elems float64, busy time.Duration) {
	w.elems += elems
	w.busy += busy
	w.curElems += elems
	w.curBusy += busy
	if w.curBusy >= rateWindow {
		w.rates = append(w.rates, w.curElems/w.curBusy.Seconds())
		w.curElems, w.curBusy = 0, 0
	}
}

// merge adds o's complete windows and totals; partial windows are
// dropped.
func (w *rateWindows) merge(o rateWindows) {
	w.rates = append(w.rates, o.rates...)
	w.elems += o.elems
	w.busy += o.busy
}

// perSecond is the median window rate, or the overall rate when the
// phase was shorter than one window.
func (w *rateWindows) perSecond() float64 {
	if len(w.rates) == 0 {
		return w.elems / w.busy.Seconds()
	}
	return median(w.rates)
}

// procSample is a snapshot of the process's kernel and runtime
// accounting, getrusage(RUSAGE_SELF) plus runtime.MemStats, and of the
// host's CPU ticks.
type procSample struct {
	ru               syscall.Rusage
	ms               runtime.MemStats
	steal, hostTicks uint64
}

func sampleProc() procSample {
	var s procSample
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &s.ru) // cannot fail for RUSAGE_SELF
	runtime.ReadMemStats(&s.ms)
	s.steal, s.hostTicks = readHostTicks()
	return s
}

// readHostTicks returns the host's CPU ticks that the hypervisor gave
// to other guests (steal) and all ticks, from the first line of
// /proc/stat; zeros where that is not available.
func readHostTicks() (steal, all uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal ...; guest
	// time is already inside user.
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, field := range f[1:9] {
		v, err := strconv.ParseUint(field, 10, 64)
		if err != nil {
			return 0, 0
		}
		all += v
		if i == 7 {
			steal = v
		}
	}
	return steal, all
}

func (s procSample) peakRSSMB() float64 { return float64(s.ru.Maxrss) / 1024 }

// usage is the accounting between two samples.
type usage struct {
	user, sys          time.Duration
	volCtx             int64
	allocBytes, allocs uint64
	gcCycles           uint32
	gcPause            time.Duration
	steal, hostTicks   uint64
}

func usageBetween(a, b procSample) usage {
	return usage{
		user:       time.Duration(b.ru.Utime.Nano() - a.ru.Utime.Nano()),
		sys:        time.Duration(b.ru.Stime.Nano() - a.ru.Stime.Nano()),
		volCtx:     b.ru.Nvcsw - a.ru.Nvcsw,
		allocBytes: b.ms.TotalAlloc - a.ms.TotalAlloc,
		allocs:     b.ms.Mallocs - a.ms.Mallocs,
		gcCycles:   b.ms.NumGC - a.ms.NumGC,
		gcPause:    time.Duration(b.ms.PauseTotalNs - a.ms.PauseTotalNs),
		steal:      b.steal - a.steal,
		hostTicks:  b.hostTicks - a.hostTicks,
	}
}

func (u usage) plus(v usage) usage {
	return usage{
		user:       u.user + v.user,
		sys:        u.sys + v.sys,
		volCtx:     u.volCtx + v.volCtx,
		allocBytes: u.allocBytes + v.allocBytes,
		allocs:     u.allocs + v.allocs,
		gcCycles:   u.gcCycles + v.gcCycles,
		gcPause:    u.gcPause + v.gcPause,
		steal:      u.steal + v.steal,
		hostTicks:  u.hostTicks + v.hostTicks,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
