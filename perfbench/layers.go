package main

import (
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/obs"
)

// layerMetrics lists every per-layer metric with its unit. A traced run of
// any workload reports all of them; a layer the workload does not exercise
// reports 0 (perfbench/README.md says which workload moves which metric).
var layerMetrics = [][2]string{
	{"spaceweather.busy_s", "s"},
	{"constellation.busy_s", "s"},
	{"constellation.sat_hours", "count"},
	{"constellation.cpu_ns_per_sat_hour", "ns"},
	{"constellation.utilization", "ratio"},
	{"constellation.speedup_w1", "ratio"},
	{"constellation.alloc_mib", "MiB"},
	{"constellation.chunk_alloc_mib", "MiB"},
	{"parallel.tasks_per_batch", "count"},
	{"parallel.stream_utilization", "ratio"},
	{"parallel.stream_speedup_w1", "ratio"},
	{"parallel.layers_below_w1", "count"},
	{"core.build_busy_s", "s"},
	{"core.build_obs_per_s", "1/s"},
	{"core.build_alloc_mib", "MiB"},
	{"core.build_speedup_w1", "ratio"},
	{"core.partial_alloc_mib_per_chunk", "MiB"},
	{"core.assoc_busy_s", "s"},
	{"core.assoc_pairs", "count"},
	{"core.assoc_hit_ratio", "ratio"},
	{"core.assoc_speedup_w1", "ratio"},
	{"report.busy_s", "s"},
	{"report.bytes_out", "bytes"},
	{"artifact.encode_s", "s"},
	{"artifact.bytes_written", "bytes"},
	{"artifact.decode_s", "s"},
	{"artifact.decode_mib_per_s", "MiB/s"},
	{"artifact.segment_encode_s", "s"},
	{"artifact.segment_decode_s", "s"},
	{"artifact.segment_mib_per_chunk", "MiB"},
	{"tle.format_ns_per_set", "ns"},
	{"tle.parse_ns_per_set", "ns"},
	{"spacetrack.group_ms", "ms"},
	{"spacetrack.group_gzip_ms", "ms"},
	{"spacetrack.history_ms", "ms"},
	{"spacetrack.ingest_ms", "ms"},
	{"spacetrack.catalog_read_ms", "ms"},
	{"spacetrack.gzip_ms", "ms"},
	{"spacetrack.gzip_ratio", "ratio"},
	{"spacetrack.not_modified_ratio", "ratio"},
	{"spacetrack.admission_rejects", "count"},
	{"incremental.ingest_us", "us"},
	{"incremental.deltas_per_ingest", "count"},
	{"incremental.risk_ms", "ms"},
	{"incremental.stream_ms", "ms"},
	{"incremental.seed_s", "s"},
	{"obs.trace_overhead_pct", "%"},
}

// tracedResult returns a result pre-filled with every per-layer metric at 0.
func tracedResult() *result {
	r := newResult()
	for _, m := range layerMetrics {
		r.set(m[0], m[1], 0)
	}
	return r
}

// layer sets one per-layer metric, keeping the unit from layerMetrics.
func (r *result) layer(name string, v float64) {
	m, ok := r.metrics[name]
	if !ok {
		panic("unknown layer metric " + name)
	}
	m.Value = v
	r.metrics[name] = m
}

// spanStat accumulates the calls of one span name.
type spanStat struct {
	calls int
	wall  time.Duration
	cpu   time.Duration // process CPU (all threads) during the calls
	alloc uint64        // heap bytes allocated during the calls
}

// tracer records a span around each call into a layer: wall time, plus the
// process's CPU time (getrusage) and heap allocation (runtime/metrics)
// deltas. CPU and allocation are process-wide, so they are attributable to a
// span only while no other span runs; the width-1 passes provide that.
type tracer struct {
	mu    sync.Mutex
	spans map[string]*spanStat
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanStat{}} }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// do runs fn inside the span name.
func (t *tracer) do(name string, fn func() error) error {
	c0, a0, start := processCPU(), heapAllocs(), time.Now()
	err := fn()
	wall := time.Since(start)
	c1, a1 := processCPU(), heapAllocs()
	t.add(name, spanStat{wall: wall, cpu: c1 - c0, alloc: a1 - a0})
	return err
}

// add accounts one call of the span name.
func (t *tracer) add(name string, call spanStat) {
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := t.spans[name]
	if sp == nil {
		sp = &spanStat{}
		t.spans[name] = sp
	}
	sp.calls++
	sp.wall += call.wall
	sp.cpu += call.cpu
	sp.alloc += call.alloc
}

// get returns the accumulated stats of the named spans, summed.
func (t *tracer) get(names ...string) spanStat {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out spanStat
	for _, n := range names {
		if sp := t.spans[n]; sp != nil {
			out.calls += sp.calls
			out.wall += sp.wall
			out.cpu += sp.cpu
			out.alloc += sp.alloc
		}
	}
	return out
}

// logSpans prints the span table to stderr.
func (t *tracer) logSpans(label string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	names := make([]string, 0, len(t.spans))
	for n := range t.spans {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		sp := t.spans[n]
		logf("%s span %-28s calls=%-5d wall=%8.3fs cpu=%8.3fs alloc=%8.1fMiB", label, n, sp.calls,
			sp.wall.Seconds(), sp.cpu.Seconds(), float64(sp.alloc)/(1<<20))
	}
}

// The program's own obs counters the traced runs read deltas of.
var (
	parallelTasks   = obs.Default().Counter("parallel_tasks_total")
	parallelBatches = obs.Default().Counter("parallel_batches_total")
	cacheWritten    = obs.Default().Counter("artifact_cache_written_bytes_total")
	cacheRead       = obs.Default().Counter("artifact_cache_read_bytes_total")
)

// parallelCounts snapshots the parallel package's task and batch counters.
func parallelCounts() (tasks, batches int64) {
	return parallelTasks.Value(), parallelBatches.Value()
}

// satHours counts a fleet run's satellite-hours from launch (or the run's
// start) to the run's end.
func satHours(res *constellation.Result) float64 {
	end := res.Start.Add(time.Duration(res.Hours) * time.Hour)
	total := 0.0
	for _, s := range res.Sats {
		from := s.LaunchedAt
		if from.Before(res.Start) {
			from = res.Start
		}
		if end.After(from) {
			total += end.Sub(from).Hours()
		}
	}
	return total
}

func mib(b uint64) float64 { return float64(b) / (1 << 20) }

// utilization is CPU over the wall-clock capacity of all Ps.
func utilization(sp spanStat) float64 {
	if sp.wall <= 0 {
		return 0
	}
	return sp.cpu.Seconds() / (sp.wall.Seconds() * float64(runtime.GOMAXPROCS(0)))
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// flagSpeedups logs every measured layer speedup below 1.0 (a layer slower at
// the host's width than sequentially) and counts them.
func flagSpeedups(r *result, names ...string) {
	n := 0
	for _, name := range names {
		v := r.metrics[name].Value
		if v > 0 && v < 1 {
			logf("FLAG: %s = %.3f < 1.0: this layer runs slower at width %d than at width 1", name, v, runtime.GOMAXPROCS(0))
			n++
		}
	}
	r.layer("parallel.layers_below_w1", float64(n))
}
