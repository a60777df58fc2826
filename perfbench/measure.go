package main

import (
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// phase is one timed pass over a fixed slice of the op list.
type phase struct {
	first, n int
	lat      []time.Duration // lat[i] is the latency of op first+i
	end      []time.Duration // end[i] is when op first+i completed, from the phase start
	mallocs  uint64
	bytes    uint64
	gcCPU    float64 // share of process CPU time spent in the GC
	errs     int
	firstErr error
	cpu      time.Duration // process CPU time, all threads
}

// runPhase runs ops [first, first+n) on inst.workers() goroutines,
// closed loop: each goroutine takes the next op only after its
// previous one returned. A GC is forced before the timer starts.
func runPhase(inst instance, first, n int, traced bool) *phase {
	p := &phase{first: first, n: n, lat: make([]time.Duration, n), end: make([]time.Duration, n)}
	inst.begin(traced)
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPUClasses()
	ru0 := processCPU()
	var next, errs atomic.Int64
	var errOnce sync.Once
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < inst.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				s := time.Now()
				if err := inst.do(first+i, traced); err != nil {
					errs.Add(1)
					errOnce.Do(func() { p.firstErr = err })
				}
				p.end[i] = time.Since(t0)
				p.lat[i] = p.end[i] - s.Sub(t0)
			}
		}()
	}
	wg.Wait()
	cpu1 := readCPUClasses()
	p.cpu = processCPU() - ru0
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.bytes = m1.TotalAlloc - m0.TotalAlloc
	if total := cpu1.total - cpu0.total; total > 0 {
		p.gcCPU = (cpu1.gc - cpu0.gc) / total
	}
	p.errs = int(errs.Load())
	return p
}

// opsPerSec is the 90th percentile, over consecutive windows of
// window ops, of the window's ops divided by its wall time (first start
// to last completion). Windows hold whole blocks, so each does the
// same work. Neighbours on a shared host take 5–30 % of the CPU in
// stretches shorter than a run; the upper percentile measures the
// least disturbed stretches, which repeat from run to run where the
// mean over the whole phase does not.
func (p *phase) opsPerSec(window int) float64 {
	var rates []float64
	for lo := 0; lo+window <= p.n; lo += window {
		start, end := p.end[lo]-p.lat[lo], time.Duration(0)
		for i := lo; i < lo+window; i++ {
			start = min(start, p.end[i]-p.lat[i])
			end = max(end, p.end[i])
		}
		rates = append(rates, float64(window)/(end-start).Seconds())
	}
	slices.Sort(rates)
	return rates[min(len(rates)-1, int(0.9*float64(len(rates))))]
}

// quantileUS is the q-quantile of the phase's op latencies, in µs
// (nearest rank).
func (p *phase) quantileUS(q float64) float64 {
	return quantileUS(p.lat, q)
}

func quantileUS(lat []time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	s := slices.Clone(lat)
	slices.Sort(s)
	i := min(len(s)-1, int(q*float64(len(s))))
	return float64(s[i].Nanoseconds()) / 1e3
}

// meanUS is the mean of ds in µs (0 for none).
func meanUS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Nanoseconds()) / 1e3 / float64(len(ds))
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (p *phase) heldBytes() int { return sliceBytes(p.lat) + sliceBytes(p.end) }

// sliceBytes is the size of s's backing array.
func sliceBytes[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// liveHeapMB is the live heap after two forced GCs, in MB. The second
// GC empties the sync.Pool victim caches, which the first only moves
// there, so pooled buffers do not count.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

type cpuClasses struct{ gc, total float64 }

func readCPUClasses() cpuClasses {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	var c cpuClasses
	if s[0].Value.Kind() == metrics.KindFloat64 {
		c.gc = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		c.total = s[1].Value.Float64()
	}
	return c
}

// allocsDuring runs f and returns the heap allocations it made (the
// whole process's, so callers run it with nothing else active).
func allocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

// stealTicks is the host CPU time counters of /proc/stat's "cpu" line.
type stealTicks struct{ steal, total uint64 }

// readSteal reads the host steal counters; zeros when unavailable. It
// is a diagnostic only: no run is ever discarded because of it.
func readSteal() stealTicks {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return stealTicks{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return stealTicks{}
	}
	var t stealTicks
	for i, v := range f[1:] {
		n, _ := strconv.ParseUint(v, 10, 64)
		if i < 8 { // user … steal; guest time is already in user
			t.total += n
		}
		if i == 7 {
			t.steal = n
		}
	}
	return t
}

func (t stealTicks) shareSince(t0 stealTicks) float64 {
	return ratio(float64(t.steal-t0.steal), float64(t.total-t0.total))
}

// processCPU is the process's CPU time, user plus system, over all its
// threads. A virtual CPU's stolen time is not charged to the threads
// that were waiting to run, so it excludes the host's steal.
func processCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
