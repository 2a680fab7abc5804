package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"
)

// runConfig is one invocation of one workload.
type runConfig struct {
	w       workload
	seed    int64
	seconds float64
	// traced selects the per-layer run (probes, ledger, traced blocks)
	// instead of the end-to-end run.
	traced bool
	sc     scale
	// outDir receives the Chrome trace of a traced run.
	outDir string
}

// runResult is one run's entry in the result file.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Trace    int     `json:"trace"`
	Seconds  float64 `json:"seconds"`
	// Noisy marks a run that started with a load average above half the
	// CPUs; its numbers are printed all the same.
	Noisy      bool    `json:"noisy"`
	LoadBefore float64 `json:"load_before"`
	LoadAfter  float64 `json:"load_after"`
	WallS      float64 `json:"wall_s"`

	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Samples is how many verified, untraced joins the timings rest on.
	Samples int               `json:"samples"`
	Metrics map[string]metric `json:"metrics"`
	// HostRandomMs and HostScatterMs are the median times of the host
	// probe's two phases in the untraced blocks, and HostSpeed the median
	// of the factors the blocks' timings were multiplied by (calib.go).
	HostRandomMs  float64 `json:"host_random_ms"`
	HostScatterMs float64 `json:"host_scatter_ms"`
	HostSpeed     float64 `json:"host_speed"`

	// Traced runs only: the harness's own spans, summed self time per
	// span name in ms, and where the Chrome trace went.
	SelfMs    map[string]float64 `json:"self_ms,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (res *runResult) noteHost(t *tally) {
	res.HostRandomMs, res.HostScatterMs = median(t.probes.random), median(t.probes.scatter)
	res.HostSpeed = median(t.speed)
}

// run generates the workload's inputs from the seed and measures them.
func run(rc runConfig) (*runResult, error) {
	return measure(prepare(rc.w, rc.seed, rc.sc), rc)
}

// measure runs one workload over prepared inputs. With rc.traced unset it
// spends the whole budget on untraced blocks and reports the end-to-end
// metrics; with it set it reports the per-layer ledger.
func measure(in *inputs, rc runConfig) (*runResult, error) {
	start := time.Now()
	res := &runResult{
		Workload: rc.w.name, Seed: rc.seed, Seconds: rc.seconds,
		LoadBefore: loadAverage(),
	}
	res.Noisy = res.LoadBefore > float64(runtime.NumCPU())/2
	budget := time.Duration(rc.seconds * float64(time.Second))

	var err error
	if rc.traced {
		res.Trace = 1
		err = measureLayers(in, rc, budget, res)
	} else {
		err = measureEndToEnd(in, rc, budget, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	res.LoadAfter = loadAverage()
	res.WallS = time.Since(start).Seconds()
	return res, nil
}

func measureEndToEnd(in *inputs, rc runConfig, budget time.Duration, res *runResult) error {
	t, err := (&runner{in: in, sc: rc.sc}).run(budget, 1)
	if err != nil {
		return err
	}
	res.Attempted, res.Failed, res.Samples = t.attempted, t.failed, len(t.samples)
	if len(t.samples) == 0 {
		return fmt.Errorf("%s: no join succeeded (%d attempted)", rc.w.name, t.attempted)
	}
	res.noteHost(t)
	set := newMetricSet(endToEnd)
	t.endToEndMetrics(set)
	res.Metrics, err = set.metrics()
	return err
}

// measureLayers spends a quarter of the budget on untraced blocks with
// the ledger on, runs the layer probes, then runs the traced blocks. The
// probes and traced blocks are fixed work (scale), not budgeted time.
func measureLayers(in *inputs, rc runConfig, budget time.Duration, res *runResult) error {
	goroutinesAtStart := runtime.NumGoroutine()
	rec := newRecorder(rc.w.name, rc.seed)
	set := newMetricSet(perLayer)
	set.set("datagen.generate_s", in.generateS)

	probe := newHostProbe()
	untraced, err := (&runner{in: in, sc: rc.sc, ledger: true, probe: probe}).run(budget/4, 1)
	if err != nil {
		return err
	}
	if err := runProbes(in, rc.sc, rec, set); err != nil {
		return err
	}
	traced, err := (&runner{in: in, sc: rc.sc, rec: rec, traced: true, probe: probe}).run(0, rc.sc.tracedBlocks)
	if err != nil {
		return err
	}
	res.Attempted = untraced.attempted + traced.attempted
	res.Failed = untraced.failed + traced.failed
	res.Samples = len(untraced.samples)
	if len(untraced.samples) == 0 || len(traced.samples) == 0 {
		return fmt.Errorf("%s: no join succeeded (%d attempted)", rc.w.name, res.Attempted)
	}

	res.noteHost(untraced)
	set.set("host.random_ms", res.HostRandomMs)
	set.set("host.scatter_ms", res.HostScatterMs)
	ledgerMetrics(set, in, untraced)
	p50 := median(untraced.wallMs())
	set.set("host.raw_join_ms_p50", p50)
	set.set("core.vs_mcjoin_ratio", ratio(p50, set.get("mcjoin.radixjoin_ms")))
	scaled := median(untraced.scaledWallMs())
	set.set("trace.overhead_pct", 100*ratio(median(traced.scaledWallMs())-scaled, scaled))
	set.set("trace.spans_per_join", mean(traced.column(func(s *joinSample) float64 { return float64(s.traceEvents) })))
	set.set("trace.critpath_coverage", median(traced.column(func(s *joinSample) float64 { return s.critCoverage })))
	set.set("process.peak_rss_mb", float64(readUsage().maxRSSKB)/1024)
	set.set("process.goroutines_leaked", float64(settledGoroutines(goroutinesAtStart)-goroutinesAtStart))

	res.SelfMs = rec.selfTimes()
	res.TraceFile = filepath.Join(rc.outDir, fmt.Sprintf("trace_%s_seed%d.json", rc.w.name, rc.seed))
	if err := rec.writeChrome(res.TraceFile); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	res.Metrics, err = set.metrics()
	return err
}
