// Command bench is the repository's wall-clock benchmark of record: four
// join workloads, seven end-to-end metrics and a per-layer ledger, all
// timed from outside the program through its exported API. README.md in
// this directory describes the design; BENCHMARK.json at the repository
// root declares the workloads, metrics and regression bounds.
//
//	bash bench/run.sh                              # every workload, both runs
//	bash bench/run.sh -workload skew_4m -trace 0   # one end-to-end run
//	bash bench/run.sh -compare a.json b.json       # judge two result files
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// hostInfo is recorded once per result file.
type hostInfo struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// resultFile is what -out receives. Claim is last and null: this harness
// measures, it does not claim gains.
type resultFile struct {
	Host       hostInfo     `json:"host"`
	LoadBefore float64      `json:"load_before"`
	LoadAfter  float64      `json:"load_after"`
	WallS      float64      `json:"wall_s"`
	Runs       []*runResult `json:"runs"`
	Claim      *string      `json:"claim"`
}

// resultLine is the last line of standard output: exactly these keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	workloadName := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "workload seed; run i of -runs uses seed+i")
	seconds := flag.Float64("seconds", 20, "time budget of one run's measured part")
	trace := flag.String("trace", "both", "0: end-to-end metrics, 1: per-layer ledger with traced blocks, both: one run of each")
	out := flag.String("out", "bench/out/result.json", "result file; Chrome traces go next to it")
	runs := flag.Int("runs", 1, "repeat every run this many times, for a set -compare can judge")
	compare := flag.Bool("compare", false, "compare two result files given as arguments instead of running")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: every rack shape needs 2 cores running at once", runtime.GOMAXPROCS(0))
	}

	selected := workloads
	if *workloadName != "all" {
		w, err := findWorkload(*workloadName)
		if err != nil {
			return err
		}
		selected = []workload{w}
	}
	var traced []bool
	switch *trace {
	case "0":
		traced = []bool{false}
	case "1":
		traced = []bool{true}
	case "both":
		traced = []bool{false, true}
	default:
		return fmt.Errorf("-trace %q: want 0, 1 or both", *trace)
	}

	start := time.Now()
	file := &resultFile{Host: readHost(), LoadBefore: loadAverage()}
	for _, w := range selected {
		for i := 0; i < *runs; i++ {
			for _, tr := range traced {
				res, err := run(runConfig{
					w: w, seed: *seed + int64(i), seconds: *seconds, traced: tr,
					sc: fullScale, outDir: filepath.Dir(*out),
				})
				if err != nil {
					return err
				}
				file.Runs = append(file.Runs, res)
				if err := printRun(res); err != nil {
					return err
				}
			}
		}
	}
	file.LoadAfter = loadAverage()
	file.WallS = time.Since(start).Seconds()
	if err := writeJSON(*out, file); err != nil {
		return err
	}
	// The result line of the last run is the last line of output.
	last := file.Runs[len(file.Runs)-1]
	line, err := json.Marshal(resultLine{
		Correct: last.Correct, Attempted: last.Attempted, Failed: last.Failed, Metrics: last.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Println(string(line))
	return err
}

// printRun prints every metric of a run by name and unit, in table order.
func printRun(res *runResult) error {
	defs := endToEnd
	if res.Trace == 1 {
		defs = perLayer
	}
	noisy := ""
	if res.Noisy {
		noisy = " noisy"
	}
	if _, err := fmt.Printf("# %s seed=%d trace=%d samples=%d attempted=%d failed=%d load=%.2f%s\n",
		res.Workload, res.Seed, res.Trace, res.Samples, res.Attempted, res.Failed, res.LoadBefore, noisy); err != nil {
		return err
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		if _, err := fmt.Printf("%-12s %-34s %14.4f %s\n", res.Workload, d.Name, m.Value, m.Unit); err != nil {
			return err
		}
	}
	return nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// commit is set by run.sh at link time (-X main.commit=...); a checkout
// that is not a git repository stays "unknown".
var commit = "unknown"

// readHost captures what the numbers depend on besides the code.
func readHost() hostInfo {
	h := hostInfo{
		Commit: commit, GoVersion: runtime.Version(), CPUModel: "unknown",
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPUModel = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// loadAverage is the 1-minute load average, or -1 where /proc does not
// provide it.
func loadAverage() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	var load float64
	if _, err := fmt.Sscan(string(data), &load); err != nil {
		return -1
	}
	return load
}
