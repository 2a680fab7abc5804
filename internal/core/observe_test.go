package core

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/datagen"
	"rackjoin/internal/fabric"
	"rackjoin/internal/obsv"
	"rackjoin/internal/relation"
	"rackjoin/internal/trace"
)

// TestCriticalPathValidatesWallTime is the acceptance check of the causal
// tracing layer: on a pipelined run over a throttled fabric — where the
// network pass, overlap window and stragglers all actually matter — the
// backward walk over the trace DAG must account for (almost) the whole
// wall clock. A coverage gap means a missing causal edge.
func TestCriticalPathValidatesWallTime(t *testing.T) {
	c, err := cluster.New(cluster.Config{
		Machines: 4, CoresPerMachine: 4,
		Fabric: fabric.Config{
			EgressBandwidth: 256 << 20, // throttle so the net pass has real width
			BaseLatency:     20 * time.Microsecond,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	tr := trace.New()
	cfg := DefaultConfig()
	cfg.Trace = tr
	w := datagen.Generate(datagen.Config{InnerTuples: 1 << 14, OuterTuples: 1 << 16, Seed: 7})
	want := datagen.ExpectedJoin(w.Outer)
	res, err := Run(c, relation.Fragment(w.Inner, 4), relation.Fragment(w.Outer, 4), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, want)

	cp, err := tr.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	checkCriticalPath(t, tr, cp)
	for _, ph := range []string{"histogram", "network partition"} {
		if cp.ByPhase[ph] == 0 {
			t.Fatalf("phase %q absent from critical path: %v", ph, cp.ByPhase)
		}
	}
	if len(cp.ByMachine) == 0 {
		t.Fatal("no per-machine attribution")
	}
	var sum time.Duration
	for _, d := range cp.ByPhase {
		sum += d
	}
	for _, d := range cp.ByLink {
		sum += d
	}
	if sum != cp.Path {
		t.Fatalf("attribution sums to %v, path is %v", sum, cp.Path)
	}
}

// TestCritPathEndpointMidRun hits /critpath while the join is still
// executing (from the network-partition OnPhase hook) and checks the
// served breakdown already carries per-phase and per-machine attribution.
func TestCritPathEndpointMidRun(t *testing.T) {
	tr := trace.New()
	srv := httptest.NewServer(obsv.NewServer(obsv.Options{Trace: tr}).Handler())
	defer srv.Close()

	type critJSON struct {
		WallSec   float64            `json:"wall_seconds"`
		PathSec   float64            `json:"path_seconds"`
		Coverage  float64            `json:"coverage"`
		ByPhase   map[string]float64 `json:"by_phase"`
		ByMachine map[string]float64 `json:"by_machine"`
	}
	var once sync.Once
	var mid critJSON
	var midErr error
	cfg := DefaultConfig()
	cfg.Trace = tr
	cfg.OnPhase = func(machine int, phase string, d time.Duration) {
		if phase != "network_partition" {
			return
		}
		once.Do(func() {
			resp, err := http.Get(srv.URL + "/critpath")
			if err != nil {
				midErr = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				midErr = fmt.Errorf("mid-run /critpath status %d", resp.StatusCode)
				return
			}
			midErr = json.NewDecoder(resp.Body).Decode(&mid)
		})
	}
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)
	if midErr != nil {
		t.Fatal(midErr)
	}
	if mid.WallSec <= 0 || mid.PathSec <= 0 {
		t.Fatalf("mid-run critical path empty: %+v", mid)
	}
	if mid.ByPhase["histogram"] == 0 {
		t.Fatalf("mid-run breakdown missing histogram: %+v", mid.ByPhase)
	}
	if len(mid.ByMachine) == 0 {
		t.Fatalf("mid-run breakdown has no machines: %+v", mid)
	}
}

// TestFlightRecordsJoinEvents mounts the flight recorder on a healthy run
// and checks the always-on capture: RDMA verb postings from the data and
// control planes, partition-readiness outcomes and phase breadcrumbs all
// land in the rings.
func TestFlightRecordsJoinEvents(t *testing.T) {
	fr := obsv.NewFlightRecorder(3, 4096)
	cfg := DefaultConfig()
	cfg.Flight = fr
	res, want := runJoin(t, 3, 3, smallWorkload, cfg)
	checkResult(t, res, want)

	kinds := map[string]int{}
	for _, ev := range fr.Snapshot() {
		kinds[ev.Kind]++
	}
	// (No "eop" here: the default two-sided transport has receiver-side
	// completions and never sends end-of-partition markers.)
	for _, k := range []string{"verb", "ready", "phase"} {
		if kinds[k] == 0 {
			t.Fatalf("no %q events captured; kinds: %v", k, kinds)
		}
	}
	if kinds["abort"] != 0 {
		t.Fatalf("abort event on a successful run: %v", kinds)
	}
}

// TestAbortProducesFlightDump forces a deterministic failure — the
// histogram all-gather vector exceeds the control buffer, so every
// machine's first control send fails — and checks the flight dump ends
// with the abort preceded by the events that led to it. (The failure must
// hit all machines symmetrically: a one-sided control-plane error leaves
// the peers blocked in CtlRecv.)
func TestAbortProducesFlightDump(t *testing.T) {
	// NetworkBits 4 → histogram vector 2·16·8 = 256 B > the 128 B control
	// buffer: the all-gather aborts on every machine before any data moves.
	c, err := cluster.New(cluster.Config{Machines: 4, CoresPerMachine: 2, CtlBufSize: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	fr := obsv.NewFlightRecorder(4, 128)
	cfg := DefaultConfig()
	cfg.NetworkBits = 4
	cfg.Flight = fr

	w := datagen.Generate(smallWorkload)
	_, err = Run(c, relation.Fragment(w.Inner, 4), relation.Fragment(w.Outer, 4), cfg)
	if err == nil {
		t.Fatal("join should have aborted on the oversized histogram exchange")
	}
	if !strings.Contains(err.Error(), "exceeds buffer size") {
		t.Fatalf("unexpected abort cause: %v", err)
	}

	snap := fr.Snapshot()
	if len(snap) == 0 {
		t.Fatal("flight recorder empty after abort")
	}
	kinds := map[string]int{}
	for _, ev := range snap {
		kinds[ev.Kind]++
	}
	if kinds["abort"] == 0 {
		t.Fatalf("no abort event in flight dump: %v", kinds)
	}
	// The events leading to the failure: each machine's phase breadcrumb
	// shows the run died in the histogram phase.
	if kinds["phase"] < 4 {
		t.Fatalf("want a histogram-phase breadcrumb per machine, kinds: %v", kinds)
	}
	// The abort is the newest retained event.
	if last := snap[len(snap)-1]; last.Kind != "abort" {
		t.Fatalf("newest flight event is %q, want abort\n%+v", last.Kind, last)
	}
	var sb strings.Builder
	fr.WriteText(&sb)
	if !strings.Contains(sb.String(), "abort") || !strings.Contains(sb.String(), "exceeds buffer size") {
		t.Fatalf("text dump missing abort context:\n%s", sb.String())
	}
}
