package main

import (
	"math"
	"sync"
	"time"
)

// The reference host is a small shared VM. Whatever runs on it, its
// memory system gets 20–40 % slower or faster for seconds to minutes at a
// time, and a join (scatter, hash probes) moves with it: raw wall-clock
// medians of ten 20-second runs of one commit spread by 13–38 %. hostProbe
// is a fixed piece of harness-owned work with a similar sensitivity, timed
// next to the joins, so that a run can report its timings at a fixed host
// speed instead of at whatever speed the host happened to have. README.md
// has the measurements behind the choice of the two phases.

// probeWorkers matches the two cores every rack shape needs.
const probeWorkers = 2

// The nominal phase times are what the probe takes on the reference host
// (Intel Xeon @ 2.10 GHz, 2 vCPUs) in its usual state. Timings are
// reported at the speed of a host on which the phases take exactly this
// long, so they read as that host's wall clock.
const (
	nominalRandom  = 9 * time.Millisecond
	nominalScatter = 10 * time.Millisecond
)

// probeWords sizes each worker's buffers (32 MB): larger than a core's
// private caches, smaller than a join's working set.
const probeWords = 1 << 22

// hostProbe owns a source and a destination buffer per worker. It calls
// nothing in the repository, so no change to the program can move it.
type hostProbe struct {
	src, dst [probeWorkers][]uint64
}

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for i := range p.src {
		p.src[i] = make([]uint64, probeWords)
		p.dst[i] = make([]uint64, probeWords)
		for k := range p.src[i] {
			p.src[i][k] = uint64(k) * 0x9E3779B97F4A7C15
		}
	}
	return p
}

// each times f running once per worker, all workers at once.
func (p *hostProbe) each(f func(worker int)) time.Duration {
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < probeWorkers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f(i)
		}(i)
	}
	wg.Wait()
	return time.Since(start)
}

// random is the latency-bound phase: every worker makes 2^19 independent
// read-modify-writes at xorshift-random places of its source buffer.
func (p *hostProbe) random() time.Duration {
	return p.each(func(i int) {
		buf := p.src[i]
		x := 88172645463325252 + uint64(i)
		for k := 0; k < 1<<19; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			buf[x&(probeWords-1)] += x
		}
	})
}

// scatter is the bandwidth-bound phase: every worker reads 16 MB of its
// source buffer as two-word tuples and partitions them 64 ways by their
// top bits into its destination buffer.
func (p *hostProbe) scatter() time.Duration {
	return p.each(func(i int) {
		src, dst := p.src[i], p.dst[i]
		const per = probeWords / 64
		var cursor [64]int
		for q := range cursor {
			cursor[q] = q * per
		}
		for k := 0; k+1 < probeWords/2; k += 2 {
			q := src[k] >> 58
			if c := cursor[q]; c+1 < (int(q)+1)*per {
				dst[c], dst[c+1] = src[k], src[k+1]
				cursor[q] = c + 2
			}
		}
	})
}

// probeTimes collects phase timings, in ms.
type probeTimes struct {
	random, scatter []float64
}

func (t *probeTimes) add(p *hostProbe) {
	t.random = append(t.random, ms(p.random()))
	t.scatter = append(t.scatter, ms(p.scatter()))
}

// speed is the factor a block multiplies its timings by: the geometric
// mean of how much faster than nominal the host ran the two phases, each
// averaged over the block's probes. Above 1 when the host was faster than
// nominal while the block ran, below 1 when it was slower.
func (t *probeTimes) speed() float64 {
	return math.Sqrt(ratio(ms(nominalRandom), mean(t.random)) * ratio(ms(nominalScatter), mean(t.scatter)))
}
