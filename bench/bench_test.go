package main

import (
	"encoding/json"
	"hash/fnv"
	"math"
	"os"
	"testing"

	"rackjoin"
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesHarness is the name-drift check of the
// declaration against the in-code tables, both ways.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the harness %q (%q)",
				i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	check := func(kind string, decl []declared, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness %d", kind, len(decl), len(defs))
		}
		for i, d := range defs {
			got := decl[i]
			if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the harness %+v", kind, i, got, d)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// checkEmitted asserts that a run emitted exactly the declared metrics,
// each once, with its unit and a finite value.
func checkEmitted(t *testing.T, res *runResult, decl []declared) {
	t.Helper()
	if len(res.Metrics) != len(decl) {
		t.Errorf("%s trace=%d: %d metrics emitted, %d declared", res.Workload, res.Trace, len(res.Metrics), len(decl))
	}
	for _, d := range decl {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s trace=%d: declared metric %s not emitted", res.Workload, res.Trace, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s has unit %q, declared %q", res.Workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s is %v", res.Workload, d.Name, m.Value)
		}
	}
}

// TestSmoke runs every workload at toy size through both kinds of run.
// It asserts shape, never timing.
func TestSmoke(t *testing.T) {
	b := readBenchmarkJSON(t)
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := run(runConfig{w: w, seed: 3, traced: traced, sc: toyScale, outDir: out})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.Attempted < 1 || res.Failed != 0 || !res.Correct {
				t.Errorf("%s traced=%v: attempted %d failed %d correct %v",
					w.name, traced, res.Attempted, res.Failed, res.Correct)
			}
			if !traced {
				checkEmitted(t, res, b.EndToEnd)
				continue
			}
			checkEmitted(t, res, b.PerLayer)
			if leaked := res.Metrics["process.goroutines_leaked"].Value; leaked != 0 {
				t.Errorf("%s: %v goroutines leaked", w.name, leaked)
			}
			if shipped := res.Metrics["core.bytes_shipped_mb"].Value; (shipped == 0) != (w.machines == 1) {
				t.Errorf("%s: %v MB shipped on %d machines", w.name, shipped, w.machines)
			}
			data, err := os.ReadFile(res.TraceFile)
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &trace); err != nil {
				t.Fatalf("%s: trace does not load: %v", w.name, err)
			}
			if len(trace.TraceEvents) == 0 || len(res.SelfMs) == 0 {
				t.Errorf("%s: %d trace events, %d self times", w.name, len(trace.TraceEvents), len(res.SelfMs))
			}
		}
	}
}

// TestWrongAnswerIsCountedNotTimed feeds the verifier a wrong expected
// checksum: every join must be counted as failed and none sampled.
func TestWrongAnswerIsCountedNotTimed(t *testing.T) {
	in := prepare(workloads[0], 3, toyScale)
	in.expected.Checksum++
	tally, err := (&runner{in: in, sc: toyScale}).run(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := toyScale.warmups + toyScale.joinsPerBlock; tally.attempted != want || tally.failed != want {
		t.Errorf("attempted %d failed %d, want %d of each", tally.attempted, tally.failed, want)
	}
	if len(tally.samples) != 0 {
		t.Errorf("%d failed joins were timed", len(tally.samples))
	}
	if _, err := measure(in, runConfig{w: in.w, seed: in.seed, sc: toyScale}); err == nil {
		t.Error("a run without one correct join reported metrics")
	}
}

// exactCounts are the per-join counts that depend on the inputs alone.
type exactCounts struct {
	bytesShipped, messages, registrations uint64
	heavyHitters                          int
}

func countsOf(t *testing.T, in *inputs) exactCounts {
	t.Helper()
	tally, err := (&runner{in: in, sc: toyScale}).run(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if tally.failed != 0 || len(tally.samples) == 0 {
		t.Fatalf("%s: %d failed, %d samples", in.w.name, tally.failed, len(tally.samples))
	}
	var first exactCounts
	for i, s := range tally.samples {
		c := exactCounts{s.res.Net.BytesSent, s.res.Net.Messages, s.res.Net.Registrations, len(s.res.Skew.HeavyHitters)}
		if i == 0 {
			first = c
		} else if c != first {
			t.Errorf("%s: join %d counted %+v, join 0 %+v", in.w.name, i, c, first)
		}
	}
	return first
}

// inputDigests hashes every chunk's bytes: equal digests mean
// byte-identical inputs (Relation.Checksum sums keys and cannot tell a
// permutation from its shuffle).
func inputDigests(in *inputs) []uint64 {
	var sums []uint64
	for _, d := range []*rackjoin.DistributedRelation{in.inner, in.outer} {
		for _, c := range d.Chunks {
			h := fnv.New64a()
			h.Write(c.Bytes())
			sums = append(sums, h.Sum64())
		}
	}
	return sums
}

// TestDeterminism: the seed alone decides the inputs and the exact
// counts; another seed gives other inputs.
func TestDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, other := prepare(w, 7, toyScale), prepare(w, 7, toyScale), prepare(w, 8, toyScale)
		sa, sb, so := inputDigests(a), inputDigests(b), inputDigests(other)
		same, differs := true, false
		for i := range sa {
			same = same && sa[i] == sb[i]
			differs = differs || sa[i] != so[i]
		}
		if !same {
			t.Errorf("%s: seed 7 generated different inputs twice", w.name)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
		if a.expected != b.expected {
			t.Errorf("%s: expected answers differ: %+v and %+v", w.name, a.expected, b.expected)
		}
		if ca, cb := countsOf(t, a), countsOf(t, b); ca != cb {
			t.Errorf("%s: exact counts differ between two runs of seed 7: %+v and %+v", w.name, ca, cb)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{4}); q1 != 4 || q3 != 4 {
		t.Errorf("quartiles of one value = %v, %v", q1, q3)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "t_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10}
	floored := metricDef{Name: "heap", Unit: "MB", Better: "lower", Bound: 0.02, Floor: 0.5}
	tight := []float64{100, 100.5, 99.5, 100.2, 99.8}
	shifted := func(xs []float64, by float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x + by
		}
		return out
	}
	for _, tc := range []struct {
		name       string
		def        metricDef
		base, next []float64
		want       string
	}{
		{"within bound", lower, tight, shifted(tight, 5), verdictOK},
		{"worse beyond bound", lower, tight, shifted(tight, 15), verdictRegressed},
		{"better is never a regression", lower, tight, shifted(tight, -40), verdictOK},
		{"higher-is-better drop", higher, tight, shifted(tight, -15), verdictRegressed},
		{"spread wider than bound", lower, []float64{80, 100, 120, 90, 110}, tight, verdictUnresolved},
		{"floor allows a small absolute step", floored, []float64{0.1, 0.1, 0.1}, []float64{0.4, 0.4, 0.4}, verdictOK},
		{"floor still bounds", floored, []float64{0.1, 0.1, 0.1}, []float64{0.9, 0.9, 0.9}, verdictRegressed},
	} {
		if got := judge(tc.def, tc.base, tc.next).verdict; got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
