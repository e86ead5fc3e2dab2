// Command perfbench is the repository benchmark. It runs one named workload
// against prebuilt binaries of the repository's CLIs (figures, cosmicdance,
// spacetrackd) and prints one JSON result as the last line of stdout:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured from the
// binaries; with -trace 1 they are the per-layer ones, measured by replaying
// the same workload in-process through the public functions of each layer
// package with a span around every call. perfbench/run.sh builds everything
// and invokes this program; see perfbench/README.md for the metric contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

// opts is one invocation's settings.
type opts struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository root (goldens)
	bin      string // directory of the prebuilt CLIs
	work     string // per-run scratch directory
}

// result is what one workload run reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	problems          []string // correctness failures, one line each
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newResult() *result { return &result{metrics: map[string]metric{}} }

func (r *result) set(name, unit string, v float64) { r.metrics[name] = metric{Value: v, Unit: unit} }

// fail records a correctness failure; it makes the run incorrect.
func (r *result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	logf("CHECK FAILED: %s", msg)
}

type workload struct {
	run    func(o opts) (*result, error)
	traced func(o opts) (*result, error)
}

var workloads = map[string]workload{
	"figures-cold": {run: runFiguresCold, traced: traceFiguresCold},
	"figures-warm": {run: runFiguresWarm, traced: traceFiguresWarm},
	"scale-100k":   {run: runScale, traced: traceScale},
	"serve-mixed":  {run: runServe, traced: traceServe},
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var o opts
	var traceN int
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 42, "workload seed, passed to the CLIs' -seed flags")
	flag.Float64Var(&o.seconds, "seconds", 10, "measurement length of one run in seconds")
	flag.IntVar(&traceN, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced replay")
	flag.StringVar(&o.root, "root", ".", "repository root")
	flag.StringVar(&o.bin, "bin", "", "directory holding the prebuilt figures, cosmicdance and spacetrackd")
	flag.StringVar(&o.work, "work", "", "scratch directory (emptied per run)")
	flag.Parse()
	o.trace = traceN == 1

	w, ok := workloads[o.workload]
	if !ok || o.bin == "" || o.work == "" || o.seconds <= 0 || (traceN != 0 && traceN != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench -workload %v -seed N -seconds S -trace 0|1 -bin DIR -work DIR\n", names)
		os.Exit(2)
	}
	o.work = filepath.Join(o.work, strconv.Itoa(os.Getpid()))
	if err := os.MkdirAll(o.work, 0o755); err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	run := w.run
	if o.trace {
		run = w.traced
	}
	start := time.Now()
	res, err := run(o)
	_ = os.RemoveAll(o.work)
	if err != nil {
		logf("%s failed: %v", o.workload, err)
		os.Exit(1)
	}
	logf("%s done in %.1fs: attempted %d, failed %d", o.workload, time.Since(start).Seconds(), res.attempted, res.failed)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.problems) == 0, res.attempted, res.failed, res.metrics}
	for name, m := range res.metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			logf("metric %s is %v; reporting 0", name, m.Value)
			out.Metrics[name] = metric{Value: 0, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !out.Correct {
		os.Exit(1)
	}
}

// median returns the middle value (mean of the two middle values for even
// counts); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
