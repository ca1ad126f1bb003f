package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile
// for it to count as measured rather than extrapolated.
const minBeyond = 10

// dist is a sorted sample.
type dist []float64

func newDist(xs []float64) dist {
	d := append(dist(nil), xs...)
	sort.Float64s(d)
	return d
}

// rank returns the nearest-rank index of the p-quantile.
func (d dist) rank(p float64) int {
	i := int(math.Ceil(p*float64(len(d)))) - 1
	if i < 0 {
		i = 0
	}
	if i > len(d)-1 {
		i = len(d) - 1
	}
	return i
}

// quantile returns the nearest-rank p-quantile, or NaN when empty.
func (d dist) quantile(p float64) float64 {
	if len(d) == 0 {
		return math.NaN()
	}
	return d[d.rank(p)]
}

// beyond counts the samples ranked above the p-quantile.
func (d dist) beyond(p float64) int {
	if len(d) == 0 {
		return 0
	}
	return len(d) - 1 - d.rank(p)
}

func (d dist) median() float64 { return d.quantile(0.5) }

// medianOf is the median of an unsorted sample.
func medianOf(xs []float64) float64 { return newDist(xs).median() }

// lowerQuartile and upperQuartile are the nearest-rank quartiles of an
// unsorted sample: always one of its values, however small it is.
func lowerQuartile(xs []float64) float64 { return newDist(xs).quantile(0.25) }
func upperQuartile(xs []float64) float64 { return newDist(xs).quantile(0.75) }

// quartiles returns the three quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive"
// method), so spreads printed here match the ones a reviewer computes
// from the same values. With one value all three equal it.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := newDist(xs)
	switch len(d) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	const n = 4
	m := len(d) + 1
	var q [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := i*m - j*n
		q[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

// snapshot is the process-wide resource state at one instant; the
// difference of two brackets a measured phase.
type snapshot struct {
	at         time.Time
	mallocs    uint64
	totalAlloc uint64
	numGC      uint32
	gcCPU      float64
	totalCPU   float64
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func takeSnapshot() snapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	return snapshot{
		at:         time.Now(),
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
		gcCPU:      float64Value(s[0]),
		totalCPU:   float64Value(s[1]),
	}
}

func float64Value(s metrics.Sample) float64 {
	if s.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s.Value.Float64()
}

// meter accumulates resource use over one or more timed windows.
type meter struct {
	mallocs  uint64
	bytes    uint64
	gcs      uint32
	gcCPU    float64
	totalCPU float64
}

func (m *meter) add(from, to snapshot) {
	m.mallocs += to.mallocs - from.mallocs
	m.bytes += to.totalAlloc - from.totalAlloc
	m.gcs += to.numGC - from.numGC
	m.gcCPU += to.gcCPU - from.gcCPU
	m.totalCPU += to.totalCPU - from.totalCPU
}

// liveHeap collects garbage and returns the bytes still reachable.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
