// Command perfbench is campuslab's end-to-end benchmark. It generates one
// workload from a seed with internal/traffic, times calls into the public
// functions of the campuslab packages, checks the outputs, and prints one
// JSON result line:
//
//	bash perfbench/run.sh --workload develop --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// run also replays the workload with spans recorded around every layer call
// and reports the per-layer metrics instead. BENCHMARK.json at the repository
// root lists both sets; perfbench/README.md maps each metric to its layer.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     int64
	measure  time.Duration
	trace    bool
	workDir  string // scratch space for stores; removed at exit
	spanOut  string // span dump written by traced runs
	workers  int    // worker goroutines handed to the program (= GOMAXPROCS)
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(cfg runConfig, rep *report) error{
	"develop":  runDevelop,
	"ingest":   runIngest,
	"query":    runQuery,
	"fastpath": runFastpath,
}

func main() {
	os.Exit(run())
}

func run() int {
	var cfg runConfig
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: develop, ingest, query or fastpath")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	flag.Float64Var(&seconds, "seconds", 10, "how long the timed phase runs")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	recoverDir := flag.String("recover-dir", "", "internal: recover an ingest node directory, as the restarted process of the ingest workload")
	flag.Parse()
	if *recoverDir != "" {
		return recoverProcess(*recoverDir, runtime.GOMAXPROCS(0))
	}
	runner, ok := workloads[cfg.workload]
	if !ok || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %s, --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg.measure = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace == 1
	cfg.workers = runtime.GOMAXPROCS(0)
	cfg.spanOut = filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-%d.jsonl", cfg.workload, cfg.seed))
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "work-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	cfg.workDir = dir
	defer os.RemoveAll(dir)

	rep, err := newReport(cfg.trace)
	if err == nil {
		rep.workload, rep.seed = cfg.workload, cfg.seed
		err = runner(cfg, rep)
	}
	if err != nil {
		// An error aborts the run: no result line, so the failure cannot be
		// mistaken for a measurement.
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	rep.set("max_rss_mb", maxRSSMB(), "MB")
	if rep.traced {
		if err := rep.tr.dump(cfg.spanOut); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: span dump: %v\n", err)
			return 1
		}
		rep.selfTimes()
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(rep.tr.spans), cfg.spanOut)
	}
	res, err := rep.result()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	if rep.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// phaseDuration is how long each timed phase runs. A traced run times an
// untraced phase and a traced phase, and splits the run between them.
func phaseDuration(cfg runConfig) time.Duration {
	if cfg.trace {
		return cfg.measure / 2
	}
	return cfg.measure
}
