package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0..100) of values by linear
// interpolation between closest ranks; 0 for an empty sample.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(values []float64) float64 { return percentile(values, 50) }

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage is a point-in-time reading of the process's resource counters.
type usage struct {
	wall     time.Time
	cpu      time.Duration
	alloc    uint64
	gcCycles uint64
	gcPause  uint64
}

var usageSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readUsage() usage {
	s := append([]metrics.Sample(nil), usageSamples...)
	metrics.Read(s)
	u := usage{wall: time.Now(), cpu: cpuTime()}
	if s[0].Value.Kind() == metrics.KindUint64 {
		u.alloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		u.gcCycles = s[1].Value.Uint64()
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	u.gcPause = ms.PauseTotalNs
	return u
}

// delta is what happened between two readings.
type delta struct {
	wall, cpu time.Duration
	allocMB   float64
	gcCycles  uint64
	gcPauseMS float64
}

func (u usage) since(base usage) delta {
	return delta{
		wall:      u.wall.Sub(base.wall),
		cpu:       u.cpu - base.cpu,
		allocMB:   float64(u.alloc-base.alloc) / (1 << 20),
		gcCycles:  u.gcCycles - base.gcCycles,
		gcPauseMS: float64(u.gcPause-base.gcPause) / 1e6,
	}
}

// liveHeapMB is the heap the most recent collection marked live. It does not
// force a collection: beside a converged cluster whose probing saturates the
// cores (1000 members on two), a forced one took about ten seconds.
func liveHeapMB() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc) / (1 << 20)
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
