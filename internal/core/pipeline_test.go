package core

import (
	"fmt"
	"sync"
	"testing"

	"rackjoin/internal/datagen"
)

// TestPipelinedEquivalence is the acceptance matrix of the partition-ready
// pipeline: on every transport × assignment × broadcast configuration the
// pipelined run must produce the exact Matches/Checksum of the barrier run
// (both are checked against the generator's expected join). The seam rows
// repeat every transport with buffers of one to three tuples at all three
// widths (seamShapes), cycling assignment and broadcast, so every shipped
// tuple — replicated ones included — crosses the scatter kernel's
// return/resume seam.
func TestPipelinedEquivalence(t *testing.T) {
	workload := datagen.Config{InnerTuples: 1 << 12, OuterTuples: 1 << 14, Seed: 7, Skew: datagen.SkewHigh}
	transports := []Transport{TransportTwoSided, TransportOneSided, TransportStream, TransportTCP, TransportOneSidedAtomic}
	assignments := []Assignment{AssignRoundRobin, AssignSizeSorted}
	run := func(name string, workload datagen.Config, cfg Config) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg.Pipeline = false
			barrier, want := runJoin(t, 3, 3, workload, cfg)
			checkResult(t, barrier, want)

			cfg.Pipeline = true
			piped, _ := runJoin(t, 3, 3, workload, cfg)
			checkResult(t, piped, want)
			if piped.Matches != barrier.Matches || piped.Checksum != barrier.Checksum {
				t.Fatalf("pipelined result diverges: matches %d vs %d, checksum %d vs %d",
					piped.Matches, barrier.Matches, piped.Checksum, barrier.Checksum)
			}
		})
	}
	for _, tr := range transports {
		for _, as := range assignments {
			for _, bcast := range []float64{0, 4} {
				cfg := DefaultConfig()
				cfg.Transport = tr
				cfg.Assignment = as
				cfg.BroadcastFactor = bcast
				cfg.SkewSplitFactor = 2
				run(fmt.Sprintf("%v/%v/bcast=%v", tr, as, bcast), workload, cfg)
			}
		}
		for i, shape := range seamShapes {
			cfg := DefaultConfig()
			cfg.Transport = tr
			cfg.Assignment = assignments[i%2]
			cfg.BroadcastFactor = []float64{0, 4}[i/2%2]
			cfg.SkewSplitFactor = 2
			run(fmt.Sprintf("%v/seam/%v", tr, shape), shape.apply(seamWorkload, &cfg), cfg)
		}
	}
}

// TestPipelinedPullFallback: the pull transport cannot pipeline (its
// network pass starts only after every sender staged); Pipeline=true must
// silently fall back to the barrier and stay correct.
func TestPipelinedPullFallback(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	cfg.Pipeline = true
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
	for m, o := range res.PipelineOverlap {
		if o != 0 {
			t.Fatalf("machine %d reports overlap %v on the barrier fallback", m, o)
		}
	}
}

// TestPipelinedSingleMachine: with one machine there is no network pass to
// overlap, but the scheduler path must still drain every partition.
func TestPipelinedSingleMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline = true
	res, want := runJoin(t, 1, 4, smallWorkload, cfg)
	checkResult(t, res, want)
}

// TestPipelinedOverlapReported: on a multi-machine channel-semantics run
// the pipelined mode should record a non-negative overlap and phases that
// still sum to a sensible wall clock.
func TestPipelinedOverlapReported(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Pipeline = true
	res, want := runJoin(t, 4, 4, smallWorkload, cfg)
	checkResult(t, res, want)
	if len(res.PipelineOverlap) != 4 {
		t.Fatalf("PipelineOverlap has %d entries, want 4", len(res.PipelineOverlap))
	}
	for m, o := range res.PipelineOverlap {
		if o < 0 {
			t.Fatalf("machine %d overlap %v < 0", m, o)
		}
	}
	for m, ph := range res.PerMachine {
		if ph.NetworkPartition < 0 || ph.LocalPartition < 0 || ph.BuildProbe < 0 {
			t.Fatalf("machine %d has a negative phase: %+v", m, ph)
		}
	}
}

// TestPipelinedResultShipping: pipelined mode under the remote-result
// plane (workers ship materialised results to a target machine while the
// network pass may still be draining).
func TestPipelinedResultShipping(t *testing.T) {
	for _, pipeline := range []bool{false, true} {
		pipeline := pipeline
		t.Run(fmt.Sprintf("pipeline=%v", pipeline), func(t *testing.T) {
			var sunk uint64
			cfg := DefaultConfig()
			cfg.Pipeline = pipeline
			cfg.ResultTarget = 1
			var sinkMu sync.Mutex
			cfg.ResultSink = func(machine int, records []byte) {
				sinkMu.Lock()
				sunk += uint64(len(records))
				sinkMu.Unlock()
			}
			res, want := runJoin(t, 3, 3, smallWorkload, cfg)
			checkResult(t, res, want)
			sinkMu.Lock()
			defer sinkMu.Unlock()
			if total := res.Matches * 24; sunk != total {
				t.Fatalf("sink received %d bytes, want %d", sunk, total)
			}
		})
	}
}
