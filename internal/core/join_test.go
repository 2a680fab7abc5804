package core

import (
	"encoding/binary"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"rackjoin/internal/cluster"
	"rackjoin/internal/datagen"
	"rackjoin/internal/relation"
	"rackjoin/internal/trace"
)

func runJoin(t *testing.T, machines, cores int, dcfg datagen.Config, jcfg Config) (*Result, datagen.Expected) {
	t.Helper()
	c, err := cluster.New(cluster.Config{Machines: machines, CoresPerMachine: cores})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := datagen.Generate(dcfg)
	want := datagen.ExpectedJoin(w.Outer)
	inner := relation.Fragment(w.Inner, machines)
	outer := relation.Fragment(w.Outer, machines)
	res, err := Run(c, inner, outer, jcfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, want
}

func checkResult(t *testing.T, res *Result, want datagen.Expected) {
	t.Helper()
	if res.Matches != want.Matches {
		t.Fatalf("matches = %d, want %d", res.Matches, want.Matches)
	}
	if res.Checksum != want.Checksum {
		t.Fatalf("checksum = %d, want %d", res.Checksum, want.Checksum)
	}
}

var smallWorkload = datagen.Config{InnerTuples: 1 << 13, OuterTuples: 1 << 15, Seed: 42}

func TestJoinTwoSided(t *testing.T) {
	res, want := runJoin(t, 4, 4, smallWorkload, DefaultConfig())
	checkResult(t, res, want)
	if res.Net.BytesSent == 0 {
		t.Fatal("no network traffic recorded")
	}
	if res.Phases.Total() <= 0 {
		t.Fatal("no time recorded")
	}
}

func TestJoinOneSided(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSided
	res, want := runJoin(t, 4, 4, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinStreamTransport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportStream
	res, want := runJoin(t, 3, 4, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinTCPTransport(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportTCP
	res, want := runJoin(t, 3, 4, smallWorkload, cfg)
	checkResult(t, res, want)
	// 2/3 of both relations (640 KB total) must cross the wire; control
	// traffic alone is only a few KB, so require a meaningful volume.
	wantBytes := uint64(2 * (smallWorkload.InnerTuples + smallWorkload.OuterTuples) * 16 / 3)
	if res.Net.BytesSent < wantBytes*9/10 {
		t.Fatalf("TCP traffic not accounted: got %d bytes, want ≈ %d", res.Net.BytesSent, wantBytes)
	}
}

func TestJoinTCPManyMachines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportTCP
	res, want := runJoin(t, 6, 2, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinTCPSkewed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportTCP
	cfg.Assignment = AssignSizeSorted
	cfg.SkewSplitFactor = 2
	dcfg := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 21}
	res, want := runJoin(t, 3, 3, dcfg, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedAtomic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedAtomic
	res, want := runJoin(t, 4, 4, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedAtomicSkewed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedAtomic
	cfg.Assignment = AssignSizeSorted
	cfg.SkewSplitFactor = 2
	dcfg := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 31}
	res, want := runJoin(t, 3, 2, dcfg, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedAtomicNonInterleaved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedAtomic
	cfg.Interleaved = false
	res, want := runJoin(t, 2, 2, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinNonInterleaved(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Interleaved = false
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinTransportsAgree(t *testing.T) {
	var results []*Result
	for _, tr := range []Transport{TransportTwoSided, TransportOneSided, TransportStream, TransportTCP, TransportOneSidedAtomic} {
		cfg := DefaultConfig()
		cfg.Transport = tr
		res, want := runJoin(t, 4, 3, smallWorkload, cfg)
		checkResult(t, res, want)
		results = append(results, res)
	}
	for i := 1; i < len(results); i++ {
		if results[i].Matches != results[0].Matches || results[i].Checksum != results[0].Checksum {
			t.Fatalf("transport %d disagrees", i)
		}
	}
}

func TestJoinSingleMachine(t *testing.T) {
	res, want := runJoin(t, 1, 4, smallWorkload, DefaultConfig())
	checkResult(t, res, want)
	if res.Net.BytesSent != 0 {
		t.Fatalf("single machine should not touch the network, sent %d bytes", res.Net.BytesSent)
	}
}

func TestJoinTwoMachinesTwoCores(t *testing.T) {
	// Minimum viable two-sided setup: 1 partitioning thread + 1 network
	// thread per machine.
	res, want := runJoin(t, 2, 2, smallWorkload, DefaultConfig())
	checkResult(t, res, want)
}

func TestJoinManyMachines(t *testing.T) {
	res, want := runJoin(t, 10, 2, smallWorkload, DefaultConfig())
	checkResult(t, res, want)
	total := 0
	for _, n := range res.PartitionsPerMachine {
		if n == 0 {
			t.Fatal("a machine got no partitions")
		}
		total += n
	}
	if total != 1<<DefaultConfig().NetworkBits {
		t.Fatalf("partitions assigned: %d", total)
	}
}

func TestJoinRatioWorkloads(t *testing.T) {
	// Paper ratios 1:1 .. 1:16 (Section 6.1.1 / 6.4.2).
	for _, ratio := range []int{1, 2, 4, 8, 16} {
		dcfg := datagen.Config{InnerTuples: 1 << 11, OuterTuples: (1 << 11) * ratio, Seed: int64(ratio)}
		res, want := runJoin(t, 3, 3, dcfg, DefaultConfig())
		checkResult(t, res, want)
	}
}

func TestJoinSkewedWorkload(t *testing.T) {
	dcfg := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 16, Skew: datagen.SkewHigh, Seed: 7}
	cfg := DefaultConfig()
	cfg.Assignment = AssignSizeSorted
	cfg.SkewSplitFactor = 2
	res, want := runJoin(t, 4, 4, dcfg, cfg)
	checkResult(t, res, want)
}

func TestJoinSkewedAllVariants(t *testing.T) {
	dcfg := datagen.Config{InnerTuples: 1 << 9, OuterTuples: 1 << 14, Skew: datagen.SkewLow, Seed: 8}
	for _, assign := range []Assignment{AssignRoundRobin, AssignSizeSorted} {
		for _, split := range []float64{0, 2} {
			cfg := DefaultConfig()
			cfg.Assignment = assign
			cfg.SkewSplitFactor = split
			res, want := runJoin(t, 3, 3, dcfg, cfg)
			checkResult(t, res, want)
		}
	}
}

func TestJoinWideTuples(t *testing.T) {
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		dcfg := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 12, TupleWidth: width, Seed: 9}
		res, want := runJoin(t, 3, 3, dcfg, DefaultConfig())
		checkResult(t, res, want)
	}
}

func TestJoinNoLocalPass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.LocalBits = 0
	res, want := runJoin(t, 2, 2, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinTinyBuffers(t *testing.T) {
	// One tuple per buffer: maximum flush pressure.
	cfg := DefaultConfig()
	cfg.BufferSize = 16
	res, want := runJoin(t, 3, 3, datagen.Config{InnerTuples: 1 << 9, OuterTuples: 1 << 11, Seed: 10}, cfg)
	checkResult(t, res, want)
}

func TestJoinSingleBufferPerPartition(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BuffersPerPartition = 1
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinEmptyRelations(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 2, CoresPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	empty := relation.Fragment(relation.New(relation.Width16, 0), 2)
	res, err := Run(c, empty, empty, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Matches != 0 {
		t.Fatal("empty join should produce no matches")
	}
}

func TestJoinUnevenChunks(t *testing.T) {
	// All data initially on machine 0.
	c, err := cluster.New(cluster.Config{Machines: 3, CoresPerMachine: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := datagen.Generate(datagen.Config{InnerTuples: 1 << 11, OuterTuples: 1 << 13, Seed: 11})
	want := datagen.ExpectedJoin(w.Outer)
	inner := &relation.Distributed{Chunks: []*relation.Relation{w.Inner, relation.New(16, 0), relation.New(16, 0)}}
	outer := &relation.Distributed{Chunks: []*relation.Relation{w.Outer, relation.New(16, 0), relation.New(16, 0)}}
	res, err := Run(c, inner, outer, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)
}

func TestJoinMaterialization(t *testing.T) {
	var mu sync.Mutex
	var total int
	var sumCheck uint64
	cfg := DefaultConfig()
	cfg.ResultSink = func(machine int, records []byte) {
		mu.Lock()
		defer mu.Unlock()
		total += len(records) / 24
		for off := 0; off < len(records); off += 24 {
			key := binary.LittleEndian.Uint64(records[off:])
			innerRID := binary.LittleEndian.Uint64(records[off+8:])
			outerRID := binary.LittleEndian.Uint64(records[off+16:])
			if innerRID != key-1 {
				panic("bad inner rid in materialised record")
			}
			sumCheck += key + innerRID + outerRID
		}
	}
	res, want := runJoin(t, 3, 3, datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 12, Seed: 12}, cfg)
	checkResult(t, res, want)
	if uint64(total) != want.Matches {
		t.Fatalf("materialised %d records, want %d", total, want.Matches)
	}
	if sumCheck != want.Checksum {
		t.Fatalf("materialised checksum %d, want %d", sumCheck, want.Checksum)
	}
}

func TestJoinPoolStallsWithSingleBuffer(t *testing.T) {
	// With a single buffer per remote partition and tiny buffers, every
	// flush forces the next acquisition for the same partition to wait.
	cfg := DefaultConfig()
	cfg.BuffersPerPartition = 1
	cfg.BufferSize = 16
	cfg.NetworkBits = 1 // 2 partitions over 2 machines: all remote traffic on one partition
	cfg.LocalBits = 8
	res, want := runJoin(t, 2, 2, datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 12, Seed: 13}, cfg)
	checkResult(t, res, want)
	if res.Net.PoolStalls == 0 {
		t.Fatal("expected pool stalls with a single tiny buffer per partition")
	}
}

func TestJoinValidation(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 2, CoresPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w := datagen.Generate(datagen.Config{InnerTuples: 64, OuterTuples: 128, Seed: 1})
	inner := relation.Fragment(w.Inner, 2)
	outer := relation.Fragment(w.Outer, 2)

	bad := DefaultConfig()
	bad.NetworkBits = 0
	if _, err := Run(c, inner, outer, bad); err == nil {
		t.Fatal("NetworkBits=0 should fail")
	}
	bad = DefaultConfig()
	bad.BufferSize = 8
	if _, err := Run(c, inner, outer, bad); err == nil {
		t.Fatal("BufferSize < width should fail")
	}
	bad = DefaultConfig()
	bad.BuffersPerPartition = 0
	if _, err := Run(c, inner, outer, bad); err == nil {
		t.Fatal("BuffersPerPartition=0 should fail")
	}
	bad = DefaultConfig()
	bad.SkewSplitFactor = -1
	if _, err := Run(c, inner, outer, bad); err == nil {
		t.Fatal("negative SkewSplitFactor should fail")
	}
	// Chunk count mismatch.
	if _, err := Run(c, relation.Fragment(w.Inner, 3), outer, DefaultConfig()); err == nil {
		t.Fatal("chunk mismatch should fail")
	}
	// Too few partitions for the machine count.
	bad = DefaultConfig()
	bad.NetworkBits = 1
	c4, err := cluster.New(cluster.Config{Machines: 4, CoresPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c4.Close()
	if _, err := Run(c4, relation.Fragment(w.Inner, 4), relation.Fragment(w.Outer, 4), bad); err == nil {
		t.Fatal("2^b1 < machines should fail")
	}
	// Two-sided with a single core.
	c1, err := cluster.New(cluster.Config{Machines: 2, CoresPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if _, err := Run(c1, inner, outer, DefaultConfig()); err == nil {
		t.Fatal("two-sided with one core should fail")
	}
	// One-sided with a single core is fine.
	oneSided := DefaultConfig()
	oneSided.Transport = TransportOneSided
	res, err := Run(c1, inner, outer, oneSided)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, datagen.ExpectedJoin(w.Outer))
}

func TestJoinRegistrationAccounting(t *testing.T) {
	res, want := runJoin(t, 2, 2, smallWorkload, DefaultConfig())
	checkResult(t, res, want)
	if res.Net.Registrations == 0 || res.Net.PagesRegistered == 0 {
		t.Fatalf("registration accounting missing: %+v", res.Net)
	}
}

func TestPaperConfig(t *testing.T) {
	cfg := PaperConfig()
	if cfg.NetworkBits != 10 || cfg.LocalBits != 10 || cfg.BufferSize != 64<<10 {
		t.Fatalf("unexpected paper config: %+v", cfg)
	}
	// Paper parameters must actually run (small data, few machines).
	res, want := runJoin(t, 2, 4, datagen.Config{InnerTuples: 1 << 12, OuterTuples: 1 << 13, Seed: 14}, cfg)
	checkResult(t, res, want)
}

func TestTransportAssignmentStrings(t *testing.T) {
	for _, tr := range []Transport{TransportTwoSided, TransportOneSided, TransportStream, TransportTCP, TransportOneSidedAtomic, Transport(9)} {
		if tr.String() == "" {
			t.Fatal("empty transport string")
		}
	}
	for _, a := range []Assignment{AssignRoundRobin, AssignSizeSorted, Assignment(9)} {
		if a.String() == "" {
			t.Fatal("empty assignment string")
		}
	}
}

// Property: the distributed join returns the analytically expected result
// across randomly drawn cluster shapes, transports and radix configs.
func TestPropertyDistributedJoinCorrect(t *testing.T) {
	if testing.Short() {
		t.Skip("property test is slow")
	}
	f := func(seed int64, nm8, cores8, b1raw, b2raw, tr8, bufRaw uint8) bool {
		machines := int(nm8%5) + 1
		cores := int(cores8%3) + 2
		b1 := uint(b1raw%4) + 3 // 8..64 partitions
		b2 := uint(b2raw % 5)
		transport := Transport(tr8 % 5)
		bufSize := (int(bufRaw%7) + 1) * 64
		useed := uint64(seed)
		cfg := Config{
			NetworkBits: b1, LocalBits: b2, BufferSize: bufSize,
			BuffersPerPartition: int(bufRaw%2) + 1,
			Transport:           transport,
			Interleaved:         useed%2 == 0,
			Assignment:          Assignment(useed % 2),
			SkewSplitFactor:     float64(useed%3) * 1.5,
		}
		c, err := cluster.New(cluster.Config{Machines: machines, CoresPerMachine: cores})
		if err != nil {
			return false
		}
		defer c.Close()
		w := datagen.Generate(datagen.Config{InnerTuples: 700, OuterTuples: 2100, Seed: seed})
		want := datagen.ExpectedJoin(w.Outer)
		res, err := Run(c, relation.Fragment(w.Inner, machines), relation.Fragment(w.Outer, machines), cfg)
		if err != nil {
			t.Logf("seed %d cfg %+v: %v", seed, cfg, err)
			return false
		}
		return res.Matches == want.Matches && res.Checksum == want.Checksum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinCoordinatorExchange(t *testing.T) {
	// Section 4.1's alternative histogram topology: gather at a
	// predesignated coordinator, combine, broadcast.
	for _, tr := range []Transport{TransportTwoSided, TransportOneSided} {
		cfg := DefaultConfig()
		cfg.Exchange = ExchangeCoordinator
		cfg.Transport = tr
		res, want := runJoin(t, 4, 3, smallWorkload, cfg)
		checkResult(t, res, want)
	}
}

func TestJoinCoordinatorExchangeSingleMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Exchange = ExchangeCoordinator
	res, want := runJoin(t, 1, 3, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinTracing(t *testing.T) {
	tr := trace.New()
	cfg := DefaultConfig()
	cfg.Trace = tr
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
	events := tr.Events()
	// The causal trace carries run roots, phases, barriers, message and
	// readiness instants and task spans; the phase layer is still exactly
	// 3 machines × 3 phases.
	phases := map[string]int{}
	runs := 0
	rooted := 0
	byID := map[trace.SpanID]trace.Event{}
	for _, e := range events {
		byID[e.ID] = e
	}
	for _, e := range events {
		switch e.Kind {
		case "phase":
			phases[e.Label]++
			if parent, ok := byID[e.Parent]; ok && parent.Kind == "run" {
				rooted++
			}
		case "run":
			runs++
		}
	}
	for _, l := range []string{"histogram", "network partition", "local+build-probe"} {
		if phases[l] != 3 {
			t.Fatalf("phase %q recorded %d times, want 3\nphases: %v", l, phases[l], phases)
		}
	}
	if runs != 3 {
		t.Fatalf("run root spans = %d, want 3", runs)
	}
	if rooted != 9 {
		t.Fatalf("%d phase spans parented to a run root, want 9", rooted)
	}
	// Two-sided transport: every data message yields a matched
	// cross-machine flow edge, and partition readiness is linked too.
	classes := map[string]int{}
	for _, f := range tr.Flows() {
		classes[f.Class]++
	}
	if classes["msg"] == 0 || classes["ready"] == 0 {
		t.Fatalf("causal flow edges missing: %v", classes)
	}
	if tr.Total() <= 0 {
		t.Fatal("trace total should be positive")
	}
	// The causal graph is complete enough for critical-path extraction:
	// the walk must cover (nearly) the whole wall clock.
	cp, err := tr.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalPath(t, tr, cp)
}

// checkCriticalPath asserts that the backward walk over the trace DAG is
// causally complete. It must end where the machine it ends on began, at
// the start of that machine's run root span (a missing edge strands the
// walk earlier), and it must cover most of the wall clock. What a complete
// walk leaves uncovered is the stagger between Run spawning the machine
// goroutines and that machine's first traced instant: scheduler time, a
// fixed 0.5–1 ms against joins of 5–20 ms. A floor of 0.95 fails on it in
// 1 of 300 runs at GOMAXPROCS=2 and 57 of 300 at GOMAXPROCS=1; 3200 runs
// on a loaded host stayed above 0.83, hence 0.80.
func checkCriticalPath(t *testing.T, tr *trace.Recorder, cp *trace.CriticalPath) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		var sb strings.Builder
		cp.Report(&sb)
		t.Fatalf(format+"\n%s", append(args, sb.String())...)
	}
	if cp.Coverage < 0.80 || cp.Coverage > 1.0+1e-9 {
		fail("critical path covers %.1f%% of wall, want 80%%–100%%", cp.Coverage*100)
	}
	if len(cp.Steps) == 0 {
		fail("critical path has no steps")
	}
	first := cp.Steps[0]
	for _, e := range tr.Events() {
		if e.Kind == "run" && e.Machine == first.Machine && e.Start == first.From {
			return
		}
	}
	fail("critical-path walk stops on machine %d at %v, not at that machine's run start", first.Machine, first.From)
}

func TestJoinEverythingEnabled(t *testing.T) {
	// Kitchen sink: every optional feature at once — size-sorted
	// assignment, coordinator histogram exchange, skew splitting,
	// inter-machine work sharing, remote result shipping and tracing —
	// over a heavily skewed workload.
	tr := trace.New()
	var mu sync.Mutex
	var records int
	cfg := DefaultConfig()
	cfg.Assignment = AssignSizeSorted
	cfg.Exchange = ExchangeCoordinator
	cfg.SkewSplitFactor = 2
	cfg.BroadcastFactor = 4
	cfg.Trace = tr
	cfg.ResultTarget = 1
	cfg.ResultSink = func(machine int, recs []byte) {
		mu.Lock()
		defer mu.Unlock()
		if machine != 1 {
			t.Errorf("records on machine %d, want 1", machine)
		}
		records += len(recs) / 24
	}
	dcfg := datagen.Config{InnerTuples: 1 << 11, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 99}
	res, want := runJoin(t, 4, 4, dcfg, cfg)
	checkResult(t, res, want)
	if uint64(records) != want.Matches {
		t.Fatalf("shipped %d records, want %d", records, want.Matches)
	}
	phaseSpans := 0
	for _, e := range tr.Events() {
		if e.Kind == "phase" {
			phaseSpans++
		}
	}
	if phaseSpans != 12 { // 4 machines × 3 phases
		t.Fatalf("phase spans = %d, want 12", phaseSpans)
	}
}

func TestJoinOneSidedRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	res, want := runJoin(t, 4, 4, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedReadSingleMachine(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	res, want := runJoin(t, 1, 2, smallWorkload, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedReadSkewed(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	cfg.Assignment = AssignSizeSorted
	cfg.SkewSplitFactor = 2
	dcfg := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 61}
	res, want := runJoin(t, 3, 2, dcfg, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedReadTinyChunks(t *testing.T) {
	// One-tuple READ granularity: maximum round-trip pressure.
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	cfg.BufferSize = 16
	res, want := runJoin(t, 3, 2, datagen.Config{InnerTuples: 1 << 9, OuterTuples: 1 << 11, Seed: 62}, cfg)
	checkResult(t, res, want)
}

func TestJoinOneSidedReadRejectsBroadcast(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Transport = TransportOneSidedRead
	cfg.BroadcastFactor = 2
	if err := cfg.validate(3, 3, 16); err == nil {
		t.Fatal("pull transport with work sharing should fail validation")
	}
}

func TestJoinReadMatchesPush(t *testing.T) {
	pull := DefaultConfig()
	pull.Transport = TransportOneSidedRead
	push := DefaultConfig()
	push.Transport = TransportOneSided
	a, want := runJoin(t, 4, 3, smallWorkload, pull)
	checkResult(t, a, want)
	b, _ := runJoin(t, 4, 3, smallWorkload, push)
	if a.Matches != b.Matches || a.Checksum != b.Checksum {
		t.Fatal("pull and push disagree")
	}
}
