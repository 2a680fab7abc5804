package main

import (
	"fmt"
	"time"

	"rackjoin"
)

// workload is one set of inputs and one rack shape. Everything that
// differs between workloads is data in this table: the measured loop never
// looks at a workload's name. Rack shapes are fixed rather than derived
// from the host's CPU count, so numbers compare across hosts; they are
// sized for a 2–4 core shared VM.
type workload struct {
	name string
	// why is the one-line reason the workload exists (BENCHMARK.json
	// carries the same sentence).
	why             string
	machines, cores int
	// data describes the generated relations; Seed is filled per run.
	data rackjoin.WorkloadConfig
	// tune adjusts DefaultJoinConfig; nil keeps the defaults.
	tune func(*rackjoin.JoinConfig)
}

var workloads = []workload{
	{
		name:     "uniform_2s",
		why:      "default two-sided pipelined path, half the bytes cross the fabric: scatter into RDMA buffers, pool and receive drain dominate",
		machines: 2, cores: 2,
		data: rackjoin.WorkloadConfig{InnerTuples: 1 << 19, OuterTuples: 1 << 21, TupleWidth: 16},
	},
	{
		name:     "uniform_1s",
		why:      "same inputs over one-sided WRITEs with exact offsets and no receive drain: a gain for one transport that costs the other shows here",
		machines: 2, cores: 2,
		data: rackjoin.WorkloadConfig{InnerTuples: 1 << 19, OuterTuples: 1 << 21, TupleWidth: 16},
		tune: func(c *rackjoin.JoinConfig) { c.Transport = rackjoin.OneSided },
	},
	{
		name:     "skew_4m",
		why:      "Zipf 1.20 outer on 4 machines with split-and-replicate: the sketch in the histogram scan dominates, kernels and transport barely matter",
		machines: 4, cores: 2,
		data: rackjoin.WorkloadConfig{InnerTuples: 1 << 18, OuterTuples: 1 << 20, TupleWidth: 16, Skew: rackjoin.SkewHigh},
		tune: func(c *rackjoin.JoinConfig) {
			c.Assignment = rackjoin.SizeSorted
			c.Skew = rackjoin.SkewModeSplit
		},
	},
	{
		name:     "wide_1m",
		why:      "one machine, 64-byte tuples, nothing shipped: the control on which any rdma, fabric, pool or receive change must predict no change",
		machines: 1, cores: 2,
		data: rackjoin.WorkloadConfig{InnerTuples: 1 << 19, OuterTuples: 1 << 19, TupleWidth: 64},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func (w workload) joinConfig() rackjoin.JoinConfig {
	cfg := rackjoin.DefaultJoinConfig()
	if w.tune != nil {
		w.tune(&cfg)
	}
	return cfg
}

// partitionThreads is how many cores of the rack scatter tuples during
// the network pass: with channel semantics on more than one machine, one
// core per machine is the network thread.
func (w workload) partitionThreads(cfg rackjoin.JoinConfig) int {
	per := w.cores
	if w.machines > 1 && cfg.Transport == rackjoin.TwoSided {
		per--
	}
	return w.machines * per
}

// scale fixes how much work one run does apart from its time budget. The
// full scale is the benchmark of record; the toy scale keeps the smoke
// test inside tier-1's time.
type scale struct {
	// inner and outer override the workload's cardinalities when non-zero.
	inner, outer int
	// A block is NewCluster → warmups joins → joinsPerBlock measured
	// joins → Close. Blocks are required, not cosmetic: see README.md.
	warmups, joinsPerBlock int
	// tracedBlocks is how many extra blocks run with span recording and
	// the program's own tracer on.
	tracedBlocks int
	// A layer probe reports the median of probeBatches batches that each
	// last at least probeBatch.
	probeBatch   time.Duration
	probeBatches int
}

var fullScale = scale{
	warmups: 2, joinsPerBlock: 10, tracedBlocks: 3,
	probeBatch: 50 * time.Millisecond, probeBatches: 10,
}

var toyScale = scale{
	inner: 1 << 12, outer: 1 << 14,
	warmups: 1, joinsPerBlock: 2, tracedBlocks: 1,
	probeBatch: time.Millisecond, probeBatches: 3,
}

// inputs is everything a run needs that depends only on (workload, seed,
// scale): the generated relations, the join configuration and the
// analytically known answer.
type inputs struct {
	w            workload
	seed         int64
	cfg          rackjoin.JoinConfig
	inner, outer *rackjoin.DistributedRelation
	expected     rackjoin.Expected
	// generateS is how long GenerateWorkload took (harness side).
	generateS float64
}

func prepare(w workload, seed int64, sc scale) *inputs {
	data := w.data
	data.Seed = seed
	if sc.inner > 0 {
		data.InnerTuples, data.OuterTuples = sc.inner, sc.outer
	}
	start := time.Now()
	inner, outer := rackjoin.GenerateWorkload(data, w.machines)
	gen := time.Since(start)
	return &inputs{
		w: w, seed: seed, cfg: w.joinConfig(),
		inner: inner, outer: outer,
		expected:  rackjoin.ExpectedJoin(outer),
		generateS: gen.Seconds(),
	}
}
