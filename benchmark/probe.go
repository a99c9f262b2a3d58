package main

import (
	"math"
	"math/rand/v2"
	"slices"
	"sync"
	"time"
)

// This file measures how fast the host is right now. On a shared host the
// same binary's wall time swings by tens of percent for seconds to minutes
// at a time, as neighbours load the cores, caches and memory. A probe run
// between consecutive timed children tracks those swings, and dividing a
// child's times by the probe's slowdown factor cancels much of them
// (README.md records the measurement).

const (
	probeALUSteps = 20_000_000
	// probeChaseWords sizes the random walk's buffer (64 MiB), larger than
	// the simulator's per-node hot set and most of a shared last-level
	// cache, so the walk pays the memory latency the simulator pays.
	probeChaseWords = 16 << 20
	probeChaseSteps = 600_000
	// probeSortWords is the sorted slice's length (8 MiB), the size of the
	// raw-sample sorts the workloads do.
	probeSortWords = 1 << 20
	// The probe's reference times: its medians on the host the benchmark
	// was calibrated on (README.md). A factor of 1 means reference speed.
	probeALURefS   = 0.0435
	probeChaseRefS = 0.0882
	probeSortRefS  = 0.1106
)

// probe holds the random walk's buffer and the sort's input; build it once
// per process.
type probe struct {
	next    []uint32
	sortSrc []uint64
	sortBuf []uint64
	// sinks keep the loops' results live, one per integer loop.
	sinks [2]uint64
}

// newProbe lays out one random cycle through the walk's buffer (Sattolo's
// algorithm), so the walk visits every word before repeating, and fills the
// sort's input from a fixed seed.
func newProbe() *probe {
	rng := rand.New(rand.NewPCG(1, 2))
	next := make([]uint32, probeChaseWords)
	for i := range next {
		next[i] = uint32(i)
	}
	for i := len(next) - 1; i > 0; i-- {
		j := rng.IntN(i)
		next[i], next[j] = next[j], next[i]
	}
	src := make([]uint64, probeSortWords)
	for i := range src {
		src[i] = rng.Uint64()
	}
	return &probe{next: next, sortSrc: src, sortBuf: make([]uint64, probeSortWords)}
}

// factor is the host's current slowdown against the reference, from the
// times of an integer loop run on two cores at once, a dependent random
// walk, and a sort, each over its reference time. Each part tracks a
// different share of a neighbour's interference. The workloads slow down
// about 1.5 times as much as the parts' geometric mean, in log terms
// (README.md), so the factor is that mean to the power 1.5: the square
// root of the product of the three ratios.
func (p *probe) factor() float64 {
	start := time.Now()
	var wg sync.WaitGroup
	for i := range p.sinks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			x := p.sinks[i] | 1
			for n := 0; n < probeALUSteps; n++ {
				x = x*6364136223846793005 + 1442695040888963407
				x ^= x >> 29
			}
			p.sinks[i] = x
		}(i)
	}
	wg.Wait()
	alu := time.Since(start).Seconds()

	start = time.Now()
	j := uint32(p.sinks[0] % probeChaseWords)
	for i := 0; i < probeChaseSteps; i++ {
		j = p.next[j]
	}
	chase := time.Since(start).Seconds()
	p.sinks[1] += uint64(j)

	copy(p.sortBuf, p.sortSrc)
	start = time.Now()
	slices.Sort(p.sortBuf)
	sorted := time.Since(start).Seconds()

	return math.Sqrt(alu / probeALURefS * chase / probeChaseRefS * sorted / probeSortRefS)
}
