package core

import (
	"fmt"
	"testing"

	"rackjoin/internal/datagen"
	"rackjoin/internal/metrics"
	"rackjoin/internal/netsched"
	"rackjoin/internal/obsv"
)

// TestNetSchedEquivalence is the acceptance matrix of the communication
// scheduler: on every push transport × policy × execution mode the
// scheduled run must produce the exact Matches/Checksum of the
// unscheduled reference. Scheduling reorders buffer postings — it must
// never change the join. The seam rows repeat every transport with
// buffers of one to three tuples (seamShapes), cycling policy and mode:
// the scatter kernel returns for every tuple or so, and each return may
// park, kick or override.
func TestNetSchedEquivalence(t *testing.T) {
	workload := datagen.Config{InnerTuples: 1 << 12, OuterTuples: 1 << 14, Seed: 7, Skew: datagen.SkewHigh}
	transports := []Transport{TransportTwoSided, TransportOneSided, TransportStream, TransportTCP, TransportOneSidedAtomic}
	policies := []netsched.Policy{netsched.Rotate, netsched.Weighted}
	run := func(name string, workload datagen.Config, cfg Config, pol netsched.Policy) {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, want := runJoin(t, 4, 3, workload, cfg)
			checkResult(t, ref, want)

			cfg.NetSched = pol
			sched, _ := runJoin(t, 4, 3, workload, cfg)
			checkResult(t, sched, want)
			if sched.Matches != ref.Matches || sched.Checksum != ref.Checksum {
				t.Fatalf("scheduled result diverges: matches %d vs %d, checksum %d vs %d",
					sched.Matches, ref.Matches, sched.Checksum, ref.Checksum)
			}
		})
	}
	for _, tr := range transports {
		for _, pol := range policies {
			for _, pipe := range []bool{false, true} {
				cfg := DefaultConfig()
				cfg.Transport = tr
				cfg.Pipeline = pipe
				run(fmt.Sprintf("%v/%v/pipeline=%v", tr, pol, pipe), workload, cfg, pol)
			}
		}
		for i, shape := range seamShapes {
			cfg := DefaultConfig()
			cfg.Transport = tr
			cfg.Pipeline = i/2%2 == 0
			pol := policies[i%2]
			run(fmt.Sprintf("%v/seam/%v/%v", tr, shape, pol), shape.apply(seamWorkload, &cfg), cfg, pol)
		}
	}
}

// TestNetSchedBroadcast exercises the scheduler with broadcast partitions:
// flushBcast traffic now routes through the same ship/park path, so the
// replicated inner fragments obey (and can be parked by) the schedule.
func TestNetSchedBroadcast(t *testing.T) {
	workload := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 15, Seed: 21, Skew: datagen.SkewHigh}
	for _, pol := range []netsched.Policy{netsched.Rotate, netsched.Weighted} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig()
			cfg.Transport = TransportOneSided
			cfg.BroadcastFactor = 4
			cfg.Assignment = AssignSizeSorted
			cfg.SkewSplitFactor = 2

			ref, want := runJoin(t, 4, 2, workload, cfg)
			checkResult(t, ref, want)

			cfg.NetSched = pol
			sched, _ := runJoin(t, 4, 2, workload, cfg)
			checkResult(t, sched, want)
			if sched.Net.BytesSent != ref.Net.BytesSent {
				t.Fatalf("scheduled run shipped %d bytes, reference %d — scheduling must not change traffic volume",
					sched.Net.BytesSent, ref.Net.BytesSent)
			}
		})
	}
}

// TestNetSchedTorture drives the parking machinery as hard as the knobs
// allow: tiny buffers force many fills per partition, a one-buffer round
// quantum advances the schedule constantly, and pipelined readiness
// injection interleaves scatter slices — so parks, round kicks, liveness
// overrides and the end-of-slice drain all fire under -race.
func TestNetSchedTorture(t *testing.T) {
	workload := datagen.Config{InnerTuples: 1 << 12, OuterTuples: 1 << 14, Seed: 99, Skew: datagen.SkewHigh}
	for _, pol := range []netsched.Policy{netsched.Rotate, netsched.Weighted} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			t.Parallel()
			reg := metrics.NewRegistry()
			cfg := DefaultConfig()
			cfg.Transport = TransportOneSided
			cfg.Pipeline = true
			cfg.BufferSize = 1 << 9
			cfg.BuffersPerPartition = 2
			cfg.NetSched = pol
			cfg.NetSchedQuantum = 1 << 9 // one buffer per round
			cfg.Metrics = reg

			res, want := runJoin(t, 4, 4, workload, cfg)
			checkResult(t, res, want)

			vals := map[string]float64{}
			for _, s := range reg.Snapshot() {
				vals[s.Name] += s.Value
			}
			if vals["netsched_rounds_total"] == 0 {
				t.Fatal("schedule never advanced a round")
			}
			if vals["netsched_parks_total"] == 0 {
				t.Fatal("no buffer was ever parked — torture knobs too loose")
			}
		})
	}
}

// TestNetSchedMetricsAndFlight checks the observability contract: a
// scheduled join emits round counters, the pairing-occupancy and
// per-destination budget gauges, and flight-recorder breadcrumbs for
// round transitions.
func TestNetSchedMetricsAndFlight(t *testing.T) {
	fr := obsv.NewFlightRecorder(4, 4096)
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSided
	cfg.NetSched = netsched.Weighted
	cfg.NetSchedQuantum = 1 << 12
	cfg.Flight = fr
	cfg.Metrics = reg

	res, want := runJoin(t, 4, 3, smallWorkload, cfg)
	checkResult(t, res, want)

	vals := map[string]float64{}
	budgetGauges := 0
	for _, s := range reg.Snapshot() {
		vals[s.Name] += s.Value
		if s.Name == "netsched_budget_buffers" {
			budgetGauges++
			if s.Value < 1 {
				t.Fatalf("budget gauge below floor: %+v", s)
			}
		}
	}
	if vals["netsched_rounds_total"] == 0 {
		t.Fatal("netsched_rounds_total not incremented")
	}
	// 4 machines × 3 remote destinations each.
	if budgetGauges != 12 {
		t.Fatalf("budget gauges = %d, want 12", budgetGauges)
	}
	if occ := vals["netsched_pairing_occupancy"]; occ < 0 || occ > 4 {
		t.Fatalf("pairing occupancy out of range: %v", occ)
	}

	kinds := map[string]int{}
	for _, ev := range fr.Snapshot() {
		kinds[ev.Kind]++
	}
	if kinds["netsched"] == 0 {
		t.Fatalf("no netsched round events in flight recorder; kinds: %v", kinds)
	}
}

// TestNetSchedSingleMachineNoop: with one machine (or the pull
// transport) the scheduler must stay out of the way entirely.
func TestNetSchedSingleMachineNoop(t *testing.T) {
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.NetSched = netsched.Rotate
	cfg.Metrics = reg
	res, want := runJoin(t, 1, 4, smallWorkload, cfg)
	checkResult(t, res, want)
	for _, s := range reg.Snapshot() {
		if s.Name == "netsched_rounds_total" {
			t.Fatal("scheduler active on a single machine")
		}
	}

	cfg = DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	cfg.NetSched = netsched.Weighted
	res, want = runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
}
