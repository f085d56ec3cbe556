package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// benchmarkFile names the metric declarations every result must follow.
const benchmarkFile = "BENCHMARK.json"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// digestFile pins the input digest of known seeds, per workload.
const digestFile = "perfbench/digests.json"

// report collects one run's operation counts, checks and metrics.
type report struct {
	workload           string
	seed               int64
	traced             bool
	endToEnd, perLayer []declaredMetric
	metrics            map[string]metricValue
	attempted, failed  int64
	tr                 *tracer
}

func newReport(trace bool) (*report, error) {
	raw, err := os.ReadFile(benchmarkFile)
	if err != nil {
		return nil, fmt.Errorf("reading metric declarations: %w", err)
	}
	var decl struct {
		EndToEnd []declaredMetric `json:"end_to_end"`
		PerLayer []declaredMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &decl); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", benchmarkFile, err)
	}
	return &report{
		traced:   trace,
		endToEnd: decl.EndToEnd, perLayer: decl.PerLayer,
		metrics: make(map[string]metricValue),
		tr:      newTracer(trace),
	}, nil
}

// set records a metric; whether it is printed depends on the run's kind.
func (r *report) set(name string, v float64, unit string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit}
}

// op counts one attempted operation and, when err is non-nil, its failure.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: operation failed: %v\n", err)
	}
}

// check records a correctness check; a failed check is a failed operation.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
	}
}

// result assembles the printed line: every end-to-end metric for an
// untraced run, every per-layer metric for a traced one. A per-layer metric
// of a layer this workload bypasses reads 0; an end-to-end metric is never
// missing.
func (r *report) result() (result, error) {
	res := result{
		Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue),
	}
	want, missingOK := r.endToEnd, false
	if r.traced {
		want, missingOK = r.perLayer, true
	}
	known := make(map[string]bool)
	for _, d := range append(append([]declaredMetric(nil), r.endToEnd...), r.perLayer...) {
		known[d.Name] = true
	}
	for name := range r.metrics {
		if !known[name] {
			return res, fmt.Errorf("metric %q is not declared in %s", name, benchmarkFile)
		}
	}
	for _, d := range want {
		m, ok := r.metrics[d.Name]
		switch {
		case !ok && !missingOK:
			return res, fmt.Errorf("end-to-end metric %q was not measured", d.Name)
		case !ok:
			m = metricValue{Value: 0, Unit: d.Unit}
		case m.Unit != d.Unit:
			return res, fmt.Errorf("metric %q measured in %s, declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return res, fmt.Errorf("metric %q is %v", d.Name, m.Value)
		}
		res.Metrics[d.Name] = m
	}
	if res.Attempted < 1 {
		return res, fmt.Errorf("no operation was attempted")
	}
	return res, nil
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is quantile at a workload's fixed tail percentile, with a
// check that at least ten samples lie beyond it. A traced run reports no
// end-to-end metric, and its untraced phase is shorter, so it skips the
// check.
func tailQuantile(rep *report, what string, xs []float64, q float64) float64 {
	beyond := float64(len(xs)) * (1 - q)
	if !rep.traced {
		rep.check(beyond >= 10, "%s: %d samples leave %.1f beyond p%g, need 10", what, len(xs), beyond, 100*q)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// maxRSSMB is the process's peak resident set size.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// setupMedian runs build reps times and keeps the last result, reporting
// the median build time as setup_s. Earlier results are released with
// discard. Every build must produce inputs with the same digest.
func setupMedian[T any](rep *report, reps int, build func() (T, string, error), discard func(T)) (T, error) {
	var (
		out    T
		digest string
		times  []float64
	)
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Release the previous set-up before the next one, so that
			// the run's peak memory is one set-up's, not a pile of them.
			discard(out)
			out = *new(T)
			runtime.GC()
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		v, d, err := build()
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return out, fmt.Errorf("setup: %w", err)
		}
		if i > 0 {
			rep.check(d == digest, "setup %d generated inputs %s, setup 0 generated %s", i, d, digest)
		}
		out, digest = v, d
	}
	rep.set("setup_s", median(times), "s")
	fmt.Fprintf(os.Stderr, "perfbench: input digest %s\n", digest)
	return out, rep.checkPinnedDigest(digest)
}

// checkPinnedDigest compares the inputs with the digest pinned for this
// workload and seed, if any, so that a change to the traffic generator's
// output cannot pass silently as a change in performance.
func (r *report) checkPinnedDigest(digest string) error {
	raw, err := os.ReadFile(digestFile)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	var pinned map[string]map[string]string
	if err := json.Unmarshal(raw, &pinned); err != nil {
		return fmt.Errorf("parsing %s: %w", digestFile, err)
	}
	if want, ok := pinned[r.workload][strconv.FormatInt(r.seed, 10)]; ok {
		r.check(digest == want, "inputs for seed %d have digest %s, %s pins %s", r.seed, digest, digestFile, want)
	}
	return nil
}
