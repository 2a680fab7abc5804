package core

import (
	"slices"
	"strings"
	"testing"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/datagen"
	"rackjoin/internal/netsched"
	"rackjoin/internal/relation"
)

// deviceFootprint is what a join may not leave behind on a device.
type deviceFootprint struct {
	pagesPinned uint64
	mrs, qps    int
}

func footprints(c *cluster.Cluster) []deviceFootprint {
	out := make([]deviceFootprint, c.NumMachines())
	for i, m := range c.Machines() {
		s := m.Dev.Stats()
		out[i] = deviceFootprint{s.PagesPinned, s.MemoryRegions, s.QueuePairs}
	}
	return out
}

// TestRunReleasesDeviceResources: a cluster outlives its joins, so after
// any number of joins every device must be back at its pre-join pinned
// pages, memory-region count and queue-pair count — on every transport,
// with and without the result plane. (Before Run tore down what it set
// up, each join left its slabs, pools, rings and queue pairs registered:
// the heap grew by the input size per join.)
func TestRunReleasesDeviceResources(t *testing.T) {
	cases := []struct {
		name string
		tune func(*Config)
	}{
		{"two-sided", func(c *Config) {}},
		{"one-sided", func(c *Config) { c.Transport = TransportOneSided }},
		{"stream", func(c *Config) { c.Transport = TransportStream }},
		{"tcp", func(c *Config) { c.Transport = TransportTCP }},
		{"one-sided-atomic", func(c *Config) { c.Transport = TransportOneSidedAtomic }},
		{"one-sided-read", func(c *Config) { c.Transport = TransportOneSidedRead }},
		{"barrier", func(c *Config) { c.Pipeline = false }},
		{"split+netsched", func(c *Config) { c.Skew = SkewSplit; c.NetSched = netsched.Rotate }},
		{"result-plane", func(c *Config) {
			c.ResultTarget = 1
			c.ResultSink = func(int, []byte) {}
		}},
	}
	w := datagen.Generate(datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 13, Seed: 5, Skew: datagen.SkewHigh})
	want := datagen.ExpectedJoin(w.Outer)
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			c, err := cluster.New(cluster.Config{Machines: 3, CoresPerMachine: 3})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			inner, outer := relation.Fragment(w.Inner, 3), relation.Fragment(w.Outer, 3)
			cfg := DefaultConfig()
			tc.tune(&cfg)
			before := footprints(c)
			for i := 0; i < 3; i++ {
				res, err := Run(c, inner, outer, cfg)
				if err != nil {
					t.Fatal(err)
				}
				checkResult(t, res, want)
				if res.Net.Registrations == 0 {
					t.Fatal("join registered nothing: the test would pass vacuously")
				}
				if after := footprints(c); !slices.Equal(after, before) {
					t.Fatalf("after join %d devices hold %+v (pinned pages, MRs, QPs), before the first %+v", i+1, after, before)
				}
			}
		})
	}
}

// TestRunReleasesDeviceResourcesOnError drives Run into a mid-pass failure
// — the input changes under it after the histogram phase, so a local slab
// window overflows its histogram-sized range — and checks the error path
// tears down too. One machine: a multi-machine join whose peer died would
// wait for it at the next barrier.
func TestRunReleasesDeviceResourcesOnError(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 1, CoresPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := datagen.Generate(datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 12, Seed: 5})
	inner, outer := relation.Fragment(w.Inner, 1), relation.Fragment(w.Outer, 1)
	cfg := DefaultConfig()
	cfg.OnPhase = func(_ int, phase string, _ time.Duration) {
		if phase == "histogram" {
			r := inner.Chunks[0]
			for i := 0; i < r.Len(); i++ {
				r.SetKey(i, 0) // every tuple now belongs to partition 0
			}
		}
	}
	before := footprints(c)
	_, err = Run(c, inner, outer, cfg)
	if err == nil || !strings.Contains(err.Error(), "histogram phase counted") {
		t.Fatalf("Run error = %v, want the slab-overflow error", err)
	}
	if after := footprints(c); !slices.Equal(after, before) {
		t.Fatalf("after a failed join devices hold %+v (pinned pages, MRs, QPs), before %+v", after, before)
	}
}
