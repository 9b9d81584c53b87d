package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// dist summarizes a sample of timings: its size and two quantiles.
type dist struct {
	N   int
	P50 float64
	P90 float64
}

// summarize sorts a copy of xs and reads the median and 90th
// percentile from it.
func summarize(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{N: len(s), P50: quantile(s, 0.5), P90: quantile(s, 0.9)}
}

// quantile linearly interpolates the q-quantile of sorted (the
// "linear" definition, numpy's default); NaN for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// beyond is the number of samples of n that lie above the q-quantile:
// a percentile is reported only when at least ten do. The epsilon
// keeps 100 × (1 − 0.9) from flooring to 9.
func beyond(n int, q float64) int {
	return int(math.Floor(float64(n)*(1-q) + 1e-9))
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return summarize(xs).P50 }

// counters is a snapshot of process-wide resource counters.
type counters struct {
	CPU          time.Duration // user + system
	AllocBytes   uint64
	AllocObjects uint64
	GCCycles     uint64
	GCPause      time.Duration
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
}

// readCounters samples the process CPU clock, runtime/metrics heap and
// GC counters, and the cumulative GC pause.
func readCounters() counters {
	var c counters
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		c.CPU = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	c.AllocBytes = s[0].Value.Uint64()
	c.AllocObjects = s[1].Value.Uint64()
	c.GCCycles = s[2].Value.Uint64()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.GCPause = time.Duration(ms.PauseTotalNs)
	return c
}

// sub returns the counter growth from before to c.
func (c counters) sub(before counters) counters {
	return counters{
		CPU:          c.CPU - before.CPU,
		AllocBytes:   c.AllocBytes - before.AllocBytes,
		AllocObjects: c.AllocObjects - before.AllocObjects,
		GCCycles:     c.GCCycles - before.GCCycles,
		GCPause:      c.GCPause - before.GCPause,
	}
}

// perIter divides each counter growth by the iterations it paid for.
type perIter struct {
	CPUSeconds     float64
	AllocBytes     float64
	AllocObjects   float64
	GCCycles       float64
	GCPauseSeconds float64
}

func (c counters) perIter(iters int) perIter {
	n := float64(iters)
	if iters <= 0 {
		n = math.NaN()
	}
	return perIter{
		CPUSeconds:     c.CPU.Seconds() / n,
		AllocBytes:     float64(c.AllocBytes) / n,
		AllocObjects:   float64(c.AllocObjects) / n,
		GCCycles:       float64(c.GCCycles) / n,
		GCPauseSeconds: c.GCPause.Seconds() / n,
	}
}

// interval is a half-open stretch [Start, End) of trace time.
type interval struct{ Start, End time.Duration }

// selfTime is the part of parent that none of children covers.
// Children are clipped to the parent and overlapping children count
// once, so concurrent work below a span is never subtracted twice.
func selfTime(parent interval, children []interval) time.Duration {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		c.Start = max(c.Start, parent.Start)
		c.End = min(c.End, parent.End)
		if c.End > c.Start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].Start < clipped[j].Start })
	var covered time.Duration
	var cur interval
	for i, c := range clipped {
		switch {
		case i == 0:
			cur = c
		case c.Start <= cur.End:
			cur.End = max(cur.End, c.End)
		default:
			covered += cur.End - cur.Start
			cur = c
		}
	}
	if len(clipped) > 0 {
		covered += cur.End - cur.Start
	}
	return parent.End - parent.Start - covered
}
