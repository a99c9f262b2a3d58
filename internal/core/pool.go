package core

import (
	"fmt"

	"github.com/hermes-sim/hermes/internal/kernel"
)

// poolChunk is one pre-mapped mmapped chunk waiting in the segregated free
// list.
type poolChunk struct {
	region *kernel.Region
	// locked reports whether the chunk's pages are still mlocked (fresh
	// reservations are; chunks returned by Free are not).
	locked bool
}

func (c poolChunk) pages() int64 { return c.region.Pages() }

// segregatedPool is the memory pool of Algorithm 2: table_size buckets of
// mmapped chunks, bucket(chunk_size) = MIN(chunk_size/min_mmap_size,
// table_size) (Equation 1, 1-indexed with the last bucket holding
// everything ≥ table_size × min_mmap_size).
type segregatedPool struct {
	minMmapPages int64
	tableSize    int
	buckets      [][]poolChunk
	totalPages   int64
}

func newSegregatedPool(minMmapSize, pageSize int64, tableSize int) *segregatedPool {
	minPages := minMmapSize / pageSize
	if minPages <= 0 {
		panic(fmt.Sprintf("core: min mmap size %d below page size %d", minMmapSize, pageSize))
	}
	return &segregatedPool{
		minMmapPages: minPages,
		tableSize:    tableSize,
		buckets:      make([][]poolChunk, tableSize+1), // 1-indexed
	}
}

// bucketFor implements Equation 1 on page counts.
func (p *segregatedPool) bucketFor(pages int64) int {
	b := int(pages / p.minMmapPages)
	if b < 1 {
		b = 1
	}
	if b > p.tableSize {
		b = p.tableSize
	}
	return b
}

// add parks a chunk in its bucket.
func (p *segregatedPool) add(c poolChunk) {
	b := p.bucketFor(c.pages())
	p.buckets[b] = append(p.buckets[b], c)
	p.totalPages += c.pages()
}

// takeFit pops a chunk at least reqPages large. The fast path takes the
// first chunk of the first non-empty bucket from bucket(req)+1 upward
// (§3.2.2: those are at least a full min_mmap_size stride above the
// request, so no scan is needed). When the higher buckets are empty it
// falls back to a bounded scan of the request's own bucket — the common
// case for latency-critical services, whose requests are near-constant
// sized (§3.2.1), so reserved chunks sit in exactly that bucket (the
// paper's worked example takes the 524 KB chunk from the request's own
// best-fit bucket).
func (p *segregatedPool) takeFit(reqPages int64) (poolChunk, bool) {
	start := p.bucketFor(reqPages) + 1
	if start > p.tableSize {
		start = p.tableSize
	}
	for b := start; b <= p.tableSize; b++ {
		// A last chunk smaller than the request is only possible in the
		// overflow bucket (table_size), which mixes sizes; it falls through
		// to the own-bucket scan / largest-chunk path.
		if n := len(p.buckets[b]); n > 0 && p.buckets[b][n-1].pages() >= reqPages {
			return p.take(b, n-1), true
		}
	}
	own := p.bucketFor(reqPages)
	for i := len(p.buckets[own]) - 1; i >= 0; i-- {
		if p.buckets[own][i].pages() >= reqPages {
			return p.take(own, i), true
		}
	}
	return poolChunk{}, false
}

// takeLargest pops the largest chunk in the pool (the expand-to-fit path
// when no bucket holds a big-enough chunk).
func (p *segregatedPool) takeLargest() (poolChunk, bool) {
	bestBucket, bestIdx := -1, -1
	var bestPages int64
	for b := p.tableSize; b >= 1; b-- {
		for i, c := range p.buckets[b] {
			if c.pages() > bestPages {
				bestBucket, bestIdx, bestPages = b, i, c.pages()
			}
		}
		if bestBucket >= 0 {
			break // higher buckets only hold smaller chunks
		}
	}
	if bestBucket < 0 {
		return poolChunk{}, false
	}
	return p.take(bestBucket, bestIdx), true
}

// takeSmallest pops the smallest chunk (the trim path of Algorithm 2
// releases smallest_space first).
func (p *segregatedPool) takeSmallest() (poolChunk, bool) {
	bestBucket, bestIdx := -1, -1
	var bestPages int64 = 1<<63 - 1
	for b := 1; b <= p.tableSize; b++ {
		for i, c := range p.buckets[b] {
			if c.pages() < bestPages {
				bestBucket, bestIdx, bestPages = b, i, c.pages()
			}
		}
		if bestBucket >= 0 && bestBucket < p.tableSize {
			break // later buckets only hold larger chunks
		}
	}
	if bestBucket < 0 {
		return poolChunk{}, false
	}
	return p.take(bestBucket, bestIdx), true
}

// take removes chunk i of bucket b, moving the bucket's last chunk into
// its slot, and returns it.
func (p *segregatedPool) take(b, i int) poolChunk {
	list := p.buckets[b]
	c := list[i]
	list[i] = list[len(list)-1]
	p.buckets[b] = list[:len(list)-1]
	p.totalPages -= c.pages()
	return c
}

// chunks returns the number of pooled chunks.
func (p *segregatedPool) chunks() int {
	n := 0
	for _, b := range p.buckets {
		n += len(b)
	}
	return n
}
