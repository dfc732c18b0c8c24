package main

import (
	"math"
	"time"
)

// The host a run measures on may be shared with other tenants. On the
// 2-vCPU VM the workloads were sized on, their load slowed memory-bound
// code by up to 2× for spells of a fraction of a second to minutes. So a
// run times a streaming kernel of its own, which the program never runs,
// between sweeps of ops at most segmentLen apart, and reports each time at
// the reference host's speed. The workloads slowed less than the kernel:
// regressed against it, their times moved by 0.08 to 0.35 of its log
// slowdown within a run, and across runs scaling by the square root of
// its slowdown steadied them best (bench/README.md, "Host speed").

// kernelRefMS is the kernel's time on the reference host, that VM when
// no other tenant slowed it.
const kernelRefMS = 2.2

// kernelTries is how many times hostScale may time the kernel to get a
// time no other thread of the process shared.
const kernelTries = 4

var (
	kernelX = func() []float64 {
		x := make([]float64, 1<<17)
		for i := range x {
			x[i] = float64(i)
		}
		return x
	}()
	kernelY = make([]float64, 1<<17)
	// kernelSink keeps the kernel's result live, so the compiler keeps its
	// work.
	kernelSink float64
)

// kernel streams axpy sweeps over two 1-MiB float64 arrays, which reach
// past a core's share of the cache into the memory system the tenants
// share. It allocates nothing.
func kernel() float64 {
	for r := 0; r < 16; r++ {
		for i := range kernelX {
			kernelY[i] += 1.0000001 * kernelX[i]
		}
	}
	return kernelY[len(kernelY)/2]
}

// hostScale times the kernel and returns the factor that brings a time
// measured now to the reference host: the square root of kernelRefMS over
// the kernel's time. Callers measure only while no op is in flight. A
// garbage collection an op left running would slow the kernel too, so a
// time during which the process used a fifth more CPU than wall time is
// taken again.
func hostScale() float64 {
	var wall time.Duration
	for try := 0; try < kernelTries; try++ {
		c0, start := readCPU(), time.Now()
		kernelSink += kernel()
		wall = time.Since(start)
		if readCPU()-c0 < wall*6/5 {
			break
		}
	}
	return math.Sqrt(kernelRefMS / ms(wall))
}
