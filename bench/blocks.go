package main

import (
	"fmt"
	"os"
	"runtime"
	"syscall"
	"time"

	"rackjoin"
)

// usage is the process's resource usage as getrusage reports it.
type usage struct {
	user, sys   time.Duration
	minorFaults int64
	maxRSSKB    int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail.
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return usage{
		user:        time.Duration(ru.Utime.Nano()),
		sys:         time.Duration(ru.Stime.Nano()),
		minorFaults: int64(ru.Minflt),
		maxRSSKB:    int64(ru.Maxrss),
	}
}

// clusterTotals are the running totals the ledger reads from what the
// public API already exposes: the cluster's metrics registry and each
// device's counters. A join's share is the difference of two readings.
type clusterTotals struct {
	bufferWaitS, cqWaitS  float64
	steals                float64
	rnrWaits, pagesPinned uint64
}

func readTotals(c *rackjoin.Cluster) clusterTotals {
	var t clusterTotals
	for _, s := range c.Metrics().Snapshot() {
		switch s.Name {
		case "netpass_buffer_wait_seconds":
			t.bufferWaitS += s.Sum
		case "rdma_cq_wait_seconds":
			t.cqWaitS += s.Sum
		case "scheduler_steals_total":
			t.steals += s.Value
		}
	}
	for _, m := range c.Machines() {
		d := m.Dev.Stats()
		t.rnrWaits += d.RNRWaits
		t.pagesPinned += d.PagesPinned
	}
	return t
}

// joinSample is everything the harness read around one verified join.
type joinSample struct {
	// block indexes tally.speed and tally.setupS.
	block               int
	wall, cpu, sys      time.Duration
	allocBytes, mallocs uint64
	minorFaults         int64
	gcCycles            uint32
	gcPause             time.Duration
	res                 *rackjoin.JoinResult
	// before/after are zero unless the runner keeps the ledger.
	before, after clusterTotals
	// Traced joins only: events in the program's own tracer and its
	// critical-path coverage.
	traceEvents  int
	critCoverage float64
}

// tally accumulates one sequence of blocks.
type tally struct {
	attempted, failed int
	samples           []joinSample
	setupS            []float64 // per block: NewCluster + warm-ups
	heapGrowthMB      []float64 // per block: live-heap growth per measured join
	// probes holds every host-probe timing of the run, three per block,
	// and speed each block's resulting factor (calib.go).
	probes probeTimes
	speed  []float64
}

// runner executes blocks of joins over one prepared input.
type runner struct {
	in *inputs
	sc scale
	// rec, when non-nil, records the harness's spans.
	rec *recorder
	// ledger reads registry and device totals around each join (outside
	// the timed window, but not free: end-to-end runs leave it off).
	ledger bool
	// traced turns the program's own tracer and flight recorder on.
	traced bool
	// probe, when non-nil, is shared with another runner of the same run;
	// otherwise run makes its own.
	probe *hostProbe
}

// run executes blocks until budget has elapsed, and at least minBlocks.
func (r *runner) run(budget time.Duration, minBlocks int) (*tally, error) {
	t := &tally{}
	probe := r.probe
	if probe == nil {
		probe = newHostProbe()
	}
	start := time.Now()
	for b := 0; b < minBlocks || time.Since(start) < budget; b++ {
		if r.rec != nil {
			r.rec.block = b
		}
		if err := r.block(t, probe); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// block is the unit of measurement: a fresh cluster, warm-up joins, the
// measured joins, Close. The cluster is dropped and collected before the
// next block so every block starts from the same heap.
func (r *runner) block(t *tally, probe *hostProbe) error {
	w := r.in.w
	blockSpan := r.rec.start("block", 0)
	start := time.Now()
	s := r.rec.start("cluster.new", blockSpan)
	c, err := rackjoin.NewCluster(w.machines, w.cores)
	r.rec.finish(s)
	if err != nil {
		return fmt.Errorf("%s: new cluster: %w", w.name, err)
	}
	s = r.rec.start("warmup", blockSpan)
	for i := 0; i < r.sc.warmups; i++ {
		r.join(c, s, t, false)
	}
	r.rec.finish(s)
	t.setupS = append(t.setupS, time.Since(start).Seconds())

	// The host probe runs before, amid and after the measured joins: it
	// has to see the host the joins see.
	heapBefore := liveHeap()
	var probes probeTimes
	probes.add(probe)
	for i := 0; i < r.sc.joinsPerBlock; i++ {
		r.join(c, blockSpan, t, true)
		if i == r.sc.joinsPerBlock/2-1 {
			probes.add(probe)
		}
	}
	probes.add(probe)
	heapAfter := liveHeap()
	t.probes.random = append(t.probes.random, probes.random...)
	t.probes.scatter = append(t.probes.scatter, probes.scatter...)
	t.speed = append(t.speed, probes.speed())
	t.heapGrowthMB = append(t.heapGrowthMB,
		(float64(heapAfter)-float64(heapBefore))/float64(r.sc.joinsPerBlock)/mib)

	c.Close()
	runtime.GC()
	r.rec.finish(blockSpan)
	return nil
}

// liveHeap is the heap still reachable after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// join runs and verifies one join. A join that errors or returns the
// wrong answer is counted and reported, never timed and never fatal.
func (r *runner) join(c *rackjoin.Cluster, parent int, t *tally, measured bool) {
	cfg := r.in.cfg
	var tracer *rackjoin.Tracer
	if r.traced {
		tracer = rackjoin.NewTracer()
		cfg.Trace = tracer
		cfg.Flight = rackjoin.NewFlightRecorder(r.in.w.machines, 0)
	}
	sample := joinSample{block: len(t.setupS) - 1}
	if r.ledger {
		sample.before = readTotals(c)
	}
	joinSpan := r.rec.start("join", parent)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	start := time.Now()
	res, err := rackjoin.Join(c, r.in.inner, r.in.outer, cfg)
	sample.wall = time.Since(start)
	u1 := readUsage()
	runtime.ReadMemStats(&m1)
	r.rec.finish(joinSpan)

	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "%s: join failed: %v\n", r.in.w.name, err)
		return
	}
	if exp := r.in.expected; res.Matches != exp.Matches || res.Checksum != exp.Checksum {
		t.failed++
		fmt.Fprintf(os.Stderr, "%s: wrong answer: matches %d checksum %d, want %d and %d\n",
			r.in.w.name, res.Matches, res.Checksum, exp.Matches, exp.Checksum)
		return
	}
	// The four phases the program reports become children of the join
	// span, laid end to end in paper order.
	p := res.Phases
	off := r.rec.child("histogram", joinSpan, 0, p.Histogram)
	off = r.rec.child("network_partition", joinSpan, off, p.NetworkPartition)
	off = r.rec.child("local_partition", joinSpan, off, p.LocalPartition)
	r.rec.child("build_probe", joinSpan, off, p.BuildProbe)
	if !measured {
		return
	}
	if r.ledger {
		sample.after = readTotals(c)
	}
	sample.res = res
	sample.cpu = (u1.user + u1.sys) - (u0.user + u0.sys)
	sample.sys = u1.sys - u0.sys
	sample.minorFaults = u1.minorFaults - u0.minorFaults
	sample.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	sample.mallocs = m1.Mallocs - m0.Mallocs
	sample.gcCycles = m1.NumGC - m0.NumGC
	sample.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	if tracer != nil {
		sample.traceEvents = len(tracer.Events())
		if cp, err := tracer.CriticalPath(); err == nil {
			sample.critCoverage = cp.Coverage
		} else {
			fmt.Fprintf(os.Stderr, "%s: critical path: %v\n", r.in.w.name, err)
		}
	}
	t.samples = append(t.samples, sample)
}

// column extracts one value per sample.
func (t *tally) column(f func(*joinSample) float64) []float64 {
	out := make([]float64, len(t.samples))
	for i := range t.samples {
		out[i] = f(&t.samples[i])
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func (t *tally) wallMs() []float64 {
	return t.column(func(s *joinSample) float64 { return ms(s.wall) })
}

// scaledWallMs is wallMs at nominal host speed: every join multiplied by
// its own block's factor (calib.go).
func (t *tally) scaledWallMs() []float64 {
	return t.column(func(s *joinSample) float64 { return t.speed[s.block] * ms(s.wall) })
}

// endToEndMetrics fills the seven end-to-end metrics from untraced
// blocks. The four timings are reported at nominal host speed: every
// timing is first multiplied by its own block's factor (calib.go). The
// memory metrics do not depend on the host's speed.
func (t *tally) endToEndMetrics(set *metricSet) {
	wall := t.scaledWallMs()
	setup := make([]float64, len(t.setupS))
	for b := range setup {
		setup[b] = t.speed[b] * t.setupS[b]
	}
	set.set("join_ms_p50", median(wall))
	set.set("join_ms_p90", quantile(wall, 0.9))
	set.set("join_cpu_ms", mean(t.column(func(s *joinSample) float64 { return t.speed[s.block] * ms(s.cpu) })))
	set.set("join_alloc_mb", median(t.column(func(s *joinSample) float64 { return float64(s.allocBytes) / mib })))
	set.set("join_allocs", median(t.column(func(s *joinSample) float64 { return float64(s.mallocs) })))
	set.set("join_heap_growth_mb", median(t.heapGrowthMB))
	set.set("setup_s", median(setup))
}
