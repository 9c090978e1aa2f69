package main

import (
	"fmt"
	"time"
)

// The host this benchmark runs on is shared: other tenants' load slows
// every process on it, by up to half, for seconds to minutes at a time.
// Raw host times of the same episode then drift far more between runs
// than any bound worth gating on. So the parent times a fixed reference
// kernel, which shares no code with the simulator, before and after
// every episode, and the host-time metrics are scaled by how fast the
// kernel ran then: value × refNominal / reference time. A change to
// the simulator moves them as much as it moves the raw times; a slower
// host moves both the episode and the kernel, and cancels out. The raw
// figures are printed beside the scaled ones.

// Typical reference kernel time, wall and process CPU seconds, on the
// 2-vCPU Xeon host the benchmark was sized on: scaled figures read as
// host time there.
const (
	refNominalS    = 0.040
	refNominalCPUS = 0.042
)

// The kernel's three parts mirror the simulator's kinds of work: a
// stencil over arrays (like field synthesis and decomposition), hash
// map churn (like session and flow bookkeeping) and goroutine handoffs
// over unbuffered channels (like simulated process switches).
const (
	refGrid    = 512
	refSweeps  = 12
	refChurn   = 150_000
	refHandoff = 30_000
)

var refBufs struct {
	a, b []float64
	m    map[uint32]uint32
}

// reference runs the kernel once and returns its wall and process CPU
// seconds.
func reference() (wall, cpu float64, err error) {
	if refBufs.a == nil {
		refBufs.a = make([]float64, refGrid*refGrid)
		refBufs.b = make([]float64, refGrid*refGrid)
		refBufs.m = make(map[uint32]uint32, 1<<16)
	}
	a, b, m := refBufs.a, refBufs.b, refBufs.m
	for i := range a {
		a[i] = float64(i % 17)
	}
	clear(m)

	c0, err := cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()

	const n = refGrid
	for s := 0; s < refSweeps; s++ {
		for i := 1; i < n-1; i++ {
			for j := 1; j < n-1; j++ {
				k := i*n + j
				b[k] = 0.25*(a[k-1]+a[k+1]+a[k-n]+a[k+n]) + 1e-3
			}
		}
		a, b = b, a
	}

	x := uint64(7)
	for r := 0; r < refChurn; r++ {
		x = x*6364136223846793005 + 1442695040888963407
		k := uint32(x >> 48)
		if _, ok := m[k]; ok {
			delete(m, k)
		} else {
			m[k] = uint32(r)
		}
	}

	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	sum := 0
	for i := 0; i < refHandoff; i++ {
		ping <- i
		sum += <-pong
	}
	close(ping)
	<-pong

	wall = time.Since(t0).Seconds()
	c1, err := cpuSeconds()
	if err != nil {
		return 0, 0, err
	}
	if a[n*n/2] <= 0 || sum != refHandoff*(refHandoff+1)/2 {
		return 0, 0, fmt.Errorf("reference kernel computed a wrong result")
	}
	return wall, c1 - c0, nil
}
