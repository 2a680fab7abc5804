package core

import (
	"fmt"
	"testing"

	"rackjoin/internal/datagen"
)

// seamShape is a buffer capacity in tuples at a tuple width. With room for
// one to three tuples per RDMA buffer the scatter kernel returns to the
// network pass's resume loop for (nearly) every shipped tuple, so the
// seam between the two — flush, lazy acquire, resume at the same tuple —
// is all a run does.
type seamShape struct{ tuples, width int }

func (s seamShape) String() string { return fmt.Sprintf("%dx%dB", s.tuples, s.width) }

// apply sets the shape's buffer size on cfg and returns workload at the
// shape's tuple width.
func (s seamShape) apply(workload datagen.Config, cfg *Config) datagen.Config {
	cfg.BufferSize = s.tuples * s.width
	workload.TupleWidth = s.width
	return workload
}

// seamShapes is every capacity 1–3 at every width; the equivalence suites
// run all nine on each transport and cycle their other dimensions.
var seamShapes = []seamShape{
	{1, 16}, {2, 32}, {3, 64},
	{2, 16}, {3, 32}, {1, 64},
	{3, 16}, {1, 32}, {2, 64},
}

// The seam rows ship a message per tuple or three; the inputs are sized
// for that.
var (
	seamWorkload     = datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 12, Seed: 7, Skew: datagen.SkewHigh}
	seamSkewWorkload = datagen.Config{InnerTuples: 1 << 9, OuterTuples: 1 << 12, Seed: 99, Skew: datagen.SkewHigh}
)

// TestNetPassTrafficPinned pins the network pass's plan: the window
// kernel changed how tuples get into buffers, not which buffers exist, so
// Net.BytesSent and Net.Messages must stay exactly what the per-tuple
// loop it replaced produced for the same inputs. The expectations were
// recorded by running this table at commit 2d74c51 (the last one with the
// per-tuple loop). One partitioning thread per machine keeps the split
// rows deterministic: the round-robin dealer is shared between threads.
// Both numbers include the control plane's few dozen messages, so a change
// to barriers or the histogram exchange moves every row by the same small
// amount and means re-recording, not a changed plan.
func TestNetPassTrafficPinned(t *testing.T) {
	type mode int
	const (
		plain mode = iota
		bcast
		split
	)
	rows := []struct {
		tr              Transport
		mode            mode
		shape           seamShape
		bytes, messages uint64
	}{
		{TransportTwoSided, plain, seamShape{1, 16}, 60456, 3408},
		{TransportTwoSided, bcast, seamShape{2, 32}, 87656, 1348},
		{TransportTwoSided, split, seamShape{3, 64}, 210376, 1139},
		{TransportOneSided, plain, seamShape{2, 64}, 223518, 1782},
		{TransportOneSided, bcast, seamShape{3, 16}, 47054, 955},
		{TransportOneSided, split, seamShape{1, 32}, 111486, 3121},
		{TransportStream, plain, seamShape{3, 32}, 114760, 1226},
		{TransportStream, bcast, seamShape{1, 64}, 169160, 2561},
		{TransportStream, split, seamShape{2, 16}, 61816, 1630},
		{TransportTCP, plain, seamShape{1, 32}, 114760, 3408},
		{TransportTCP, bcast, seamShape{2, 16}, 46904, 1348},
		{TransportTCP, split, seamShape{3, 64}, 210376, 1139},
		{TransportOneSidedAtomic, plain, seamShape{2, 16}, 60606, 1782},
		{TransportOneSidedAtomic, bcast, seamShape{3, 64}, 169310, 955},
		{TransportOneSidedAtomic, split, seamShape{1, 32}, 111486, 3121},
		{TransportOneSidedRead, plain, seamShape{3, 16}, 60560, 28},
		{TransportOneSidedRead, split, seamShape{1, 64}, 207344, 28}, // degrades to detect
	}
	for _, row := range rows {
		row := row
		t.Run(fmt.Sprintf("%v/%d/%v", row.tr, row.mode, row.shape), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Transport = row.tr
			workload := seamWorkload
			switch row.mode {
			case bcast:
				cfg.BroadcastFactor = 4
				cfg.Assignment = AssignSizeSorted
			case split:
				cfg.Skew = SkewSplit
				workload = seamSkewWorkload
			}
			cores := 1
			if cfg.usesNetworkThread() {
				cores = 2
			}
			res, want := runJoin(t, 3, cores, row.shape.apply(workload, &cfg), cfg)
			checkResult(t, res, want)
			if res.Net.BytesSent != row.bytes || res.Net.Messages != row.messages {
				t.Fatalf("shipped %d bytes in %d messages, the per-tuple loop shipped %d in %d",
					res.Net.BytesSent, res.Net.Messages, row.bytes, row.messages)
			}
		})
	}
}
