package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/datagen"
	"rackjoin/internal/metrics"
	"rackjoin/internal/obsv"
	"rackjoin/internal/relation"
)

// skewedForSplit concentrates the outer relation on a few Zipf head keys:
// their partitions cross the default detection threshold (4/np) and the
// split engine must redistribute them.
var skewedForSplit = datagen.Config{
	InnerTuples: 1 << 12, OuterTuples: 1 << 16,
	Skew: datagen.SkewHigh, Seed: 99,
}

// TestSkewEquivalenceAllTransports: the skew engine must be result-
// invariant — byte-identical matches and checksum with the engine off,
// detecting, and splitting — across every transport in both barrier and
// pipelined mode. The split runs must actually split something (except on
// the pull transport, which degrades to detection).
func TestSkewEquivalenceAllTransports(t *testing.T) {
	transports := []Transport{
		TransportTwoSided, TransportOneSided, TransportStream,
		TransportTCP, TransportOneSidedAtomic, TransportOneSidedRead,
	}
	for _, tr := range transports {
		for _, pipelined := range []bool{false, true} {
			for _, mode := range []SkewMode{SkewOff, SkewDetect, SkewSplit} {
				cfg := DefaultConfig()
				cfg.Transport = tr
				cfg.Pipeline = pipelined
				cfg.Skew = mode
				res, want := runJoin(t, 3, 3, skewedForSplit, cfg)
				checkResult(t, res, want)
				wantMode := mode
				if mode == SkewSplit && tr == TransportOneSidedRead {
					wantMode = SkewDetect
				}
				if res.Skew.Mode != wantMode {
					t.Fatalf("transport %v pipelined %v: mode %v, want %v", tr, pipelined, res.Skew.Mode, wantMode)
				}
				switch {
				case wantMode == SkewOff:
					if len(res.Skew.HeavyHitters) != 0 || len(res.Skew.SplitPartitions) != 0 {
						t.Fatalf("transport %v: skew engine off but stats reported: %+v", tr, res.Skew)
					}
				case wantMode == SkewDetect:
					if len(res.Skew.HeavyHitters) == 0 {
						t.Fatalf("transport %v: no heavy hitters detected on a Zipf %.2f workload", tr, skewedForSplit.Skew)
					}
					if len(res.Skew.SplitPartitions) != 0 || res.Skew.ReplicatedBytes != 0 {
						t.Fatalf("transport %v: detect mode must not act: %+v", tr, res.Skew)
					}
				default: // SkewSplit
					if len(res.Skew.SplitPartitions) == 0 {
						t.Fatalf("transport %v pipelined %v: nothing split on a skewed workload", tr, pipelined)
					}
					if res.Skew.ReplicatedBytes == 0 {
						t.Fatalf("transport %v pipelined %v: split partitions but no replicated traffic", tr, pipelined)
					}
				}
			}
		}
	}
	// Split mode again with buffers of one to three tuples at every width
	// (seamShapes): dealt and replicated tuples ship a buffer every tuple
	// or so, next to remote partitions whose window fills as often.
	for i, tr := range transports {
		for j, shape := range seamShapes {
			cfg := DefaultConfig()
			cfg.Transport = tr
			cfg.Pipeline = (i+j)%2 == 0
			cfg.Skew = SkewSplit
			res, want := runJoin(t, 3, 3, shape.apply(seamSkewWorkload, &cfg), cfg)
			checkResult(t, res, want)
			if tr != TransportOneSidedRead && len(res.Skew.SplitPartitions) == 0 {
				t.Fatalf("transport %v seam %v: nothing split on a skewed workload", tr, shape)
			}
		}
	}
}

// TestSkewSplitWithBroadcast: selective broadcast (BroadcastFactor) and
// the skew engine can coexist — partitions claimed by both are processed
// once, in split mode, with the right result.
func TestSkewSplitWithBroadcast(t *testing.T) {
	cfg := broadcastConfig()
	cfg.Skew = SkewSplit
	res, want := runJoin(t, 4, 4, skewedForSplit, cfg)
	checkResult(t, res, want)
	if len(res.Skew.SplitPartitions) == 0 {
		t.Fatal("nothing split with broadcast enabled")
	}
}

// TestSkewUniformNoOp: on a uniform workload no key crosses the
// threshold, so split mode must change nothing — no hot keys, no split
// partitions, no replicated bytes, correct result.
func TestSkewUniformNoOp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Skew = SkewSplit
	res, want := runJoin(t, 4, 4, smallWorkload, cfg)
	checkResult(t, res, want)
	if len(res.Skew.HeavyHitters) != 0 || len(res.Skew.SplitPartitions) != 0 || res.Skew.ReplicatedBytes != 0 {
		t.Fatalf("uniform workload triggered the skew engine: %+v", res.Skew)
	}
}

// TestSkewSingleMachineDegrades: with one machine there is nobody to
// split with; the effective mode must degrade to detection.
func TestSkewSingleMachineDegrades(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Skew = SkewSplit
	res, want := runJoin(t, 1, 4, skewedForSplit, cfg)
	checkResult(t, res, want)
	if res.Skew.Mode != SkewDetect {
		t.Fatalf("single machine mode = %v, want SkewDetect", res.Skew.Mode)
	}
	if len(res.Skew.HeavyHitters) == 0 {
		t.Fatal("single-machine detection found no heavy hitters")
	}
}

// TestSkewThresholdRespected: an explicit SkewThreshold above the hottest
// key's share must suppress detection entirely.
func TestSkewThresholdRespected(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Skew = SkewSplit
	cfg.SkewThreshold = 0.9
	res, want := runJoin(t, 3, 3, skewedForSplit, cfg)
	checkResult(t, res, want)
	if len(res.Skew.HeavyHitters) != 0 {
		t.Fatalf("threshold 0.9 still detected %d heavy hitters", len(res.Skew.HeavyHitters))
	}
}

// TestSkewBalancesProbeWork: the point of the engine — with splitting on,
// the dealt outer shares of hot partitions spread the probe work, so the
// per-machine received outer tuples of the hot partition even out. Proxy:
// with the engine, every machine resides the split partition (resident
// sums exceed np) and replicated traffic flows.
func TestSkewBalancesProbeWork(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Skew = SkewSplit
	res, want := runJoin(t, 4, 4, skewedForSplit, cfg)
	checkResult(t, res, want)
	total := 0
	for _, n := range res.PartitionsPerMachine {
		total += n
	}
	wantMin := 1<<cfg.NetworkBits + (4-1)*len(res.Skew.SplitPartitions)
	if total < wantMin {
		t.Fatalf("split partitions not resident everywhere: sum %d, want ≥ %d", total, wantMin)
	}
}

// TestSkewMetricsAndFlight: the run must leave skew_heavy_hitters_total
// and per-partition skew_replicated_bytes_total in the registry, and
// "skew" breadcrumbs in the flight recorder.
func TestSkewMetricsAndFlight(t *testing.T) {
	const machines = 3
	c, err := cluster.New(cluster.Config{Machines: machines, CoresPerMachine: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := datagen.Generate(skewedForSplit)
	want := datagen.ExpectedJoin(w.Outer)

	reg := metrics.NewRegistry()
	fr := obsv.NewFlightRecorder(machines, 4096)
	cfg := DefaultConfig()
	cfg.Skew = SkewSplit
	cfg.Metrics = reg
	cfg.Flight = fr
	res, err := Run(c, relation.Fragment(w.Inner, machines), relation.Fragment(w.Outer, machines), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)

	var hitters, replBytes float64
	for _, s := range reg.Snapshot() {
		switch s.Name {
		case "skew_heavy_hitters_total":
			hitters += s.Value
		case "skew_replicated_bytes_total":
			if s.Labels["partition"] == "" {
				t.Fatal("skew_replicated_bytes_total without partition label")
			}
			replBytes += s.Value
		}
	}
	if hitters == 0 {
		t.Fatal("skew_heavy_hitters_total not exported")
	}
	if replBytes == 0 {
		t.Fatal("skew_replicated_bytes_total not exported")
	}
	if uint64(replBytes) != res.Skew.ReplicatedBytes {
		t.Fatalf("metric says %d replicated bytes, result says %d", uint64(replBytes), res.Skew.ReplicatedBytes)
	}
	found := false
	for _, e := range fr.Snapshot() {
		if e.Kind == "skew" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no skew breadcrumbs in the flight recorder")
	}
}

// TestSplitRange: the claim/steal protocol of a splittable range — the
// owner eats the bottom, thieves halve the top, the pieces tile [lo, hi)
// exactly, and undersized remainders refuse to split.
func TestSplitRange(t *testing.T) {
	r := &splitRange{lo: 0, hi: 4 * splitMinTuples}
	lo, hi, ok := r.steal()
	if !ok || lo != 2*splitMinTuples || hi != 4*splitMinTuples {
		t.Fatalf("steal got [%d,%d) ok=%v, want top half", lo, hi, ok)
	}
	covered := 0
	for {
		clo, chi, ok := r.claim(1000)
		if !ok {
			break
		}
		covered += chi - clo
	}
	if covered != 2*splitMinTuples {
		t.Fatalf("owner claimed %d tuples, want %d", covered, 2*splitMinTuples)
	}
	small := &splitRange{lo: 0, hi: splitMinTuples - 1}
	if _, _, ok := small.steal(); ok {
		t.Fatal("stole from an undersized range")
	}
}

// TestSchedulerTrySplit: trySplit pre-charges pending before shrinking
// the victim's range (the termination discipline) and returns a runnable
// task covering the stolen half.
func TestSchedulerTrySplit(t *testing.T) {
	s := newScheduler(2)
	ran := 0
	rng := &splitRange{lo: 0, hi: 2 * splitMinTuples}
	o := &splitOffer{
		rng:   rng,
		spawn: func(lo, hi int) schedTask { return func(*joinWorker) { ran += hi - lo } },
	}
	s.reserve(1) // stands in for the running owner task
	s.offer(o)
	task, ok := s.trySplit(1)
	if !ok {
		t.Fatal("trySplit found nothing")
	}
	if got := s.pending.Load(); got != 2 {
		t.Fatalf("pending = %d after split, want 2 (owner + stolen)", got)
	}
	task(nil)
	if ran != splitMinTuples {
		t.Fatalf("stolen task covered %d tuples, want %d", ran, splitMinTuples)
	}
	// Shrink the remainder below the floor: no further splits, and the
	// failed attempt must not leak a pending reservation.
	rng.claim(1)
	if _, ok := s.trySplit(1); ok {
		t.Fatal("split an undersized remainder")
	}
	if got := s.pending.Load(); got != 2 {
		t.Fatalf("failed split leaked pending: %d, want 2", got)
	}
	s.retract(o)
	if _, ok := s.trySplit(1); ok {
		t.Fatal("split a retracted offer")
	}
}

// TestSkewTortureMidRunSplit: lower the split floor so idle workers may
// halve running probe ranges, then hammer a heavily skewed join across
// transports and modes. Run under -race this exercises the full
// claim/steal/offer/park interleavings in situ; the result must stay
// exact whether or not a split lands (on test-sized inputs a hot range
// drains in microseconds, so organic splits are timing-dependent —
// TestSchedulerSplitConcurrency covers the guaranteed-split case).
func TestSkewTortureMidRunSplit(t *testing.T) {
	old := splitMinTuples
	splitMinTuples = 64
	defer func() { splitMinTuples = old }()

	var splits uint64
	for _, tr := range []Transport{TransportTwoSided, TransportOneSided, TransportTCP} {
		for _, pipelined := range []bool{false, true} {
			cfg := DefaultConfig()
			cfg.Transport = tr
			cfg.Pipeline = pipelined
			cfg.Skew = SkewSplit
			res, want := runJoin(t, 3, 4, skewedForSplit, cfg)
			checkResult(t, res, want)
			splits += res.Skew.TaskSplits
		}
	}
	t.Logf("mid-run task splits across six torture runs: %d", splits)
}

// TestSchedulerSplitConcurrency drives the scheduler directly with a
// splittable task whose claim loop is slow enough that idle workers are
// guaranteed a live window to halve it: the range must be covered exactly
// once (no lost tuples, no duplicates — the termination discipline) and
// at least one split must land. Run under -race this is the mid-run
// splitting torture.
func TestSchedulerSplitConcurrency(t *testing.T) {
	const workers = 4
	const total = 4 * 1 << 14 // 4 × splitMinTuples: splittable twice over
	const chunk = 512

	s := newScheduler(workers)
	var claimed atomic.Int64
	var splittable func(lo, hi int) schedTask
	splittable = func(lo, hi int) schedTask {
		return func(*joinWorker) {
			rng := &splitRange{lo: lo, hi: hi}
			o := &splitOffer{rng: rng, spawn: splittable}
			s.offer(o)
			for {
				clo, chi, ok := rng.claim(chunk)
				if !ok {
					break
				}
				claimed.Add(int64(chi - clo))
				time.Sleep(50 * time.Microsecond) // stand-in for probe work
			}
			s.retract(o)
		}
	}
	s.reserve(1)
	s.inject(splittable(0, total))

	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for {
				task, ok := s.next(id)
				if !ok {
					return
				}
				task(nil)
				s.done()
			}
		}(i)
	}
	wg.Wait()

	if got := claimed.Load(); got != total {
		t.Fatalf("claimed %d tuples, want exactly %d (lost or duplicated work)", got, total)
	}
	if s.splits.Load() == 0 {
		t.Fatal("no worker split the range despite a ~6ms live window")
	}
	if got := s.pending.Load(); got != 0 {
		t.Fatalf("pending = %d after drain, want 0", got)
	}
}
