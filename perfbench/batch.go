package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// goldenSeed is the seed cmd/figures' golden output was rendered at.
const goldenSeed = 42

// Scale-out size of the scale-100k workload.
const (
	scaleSats = 100000
	scaleDays = 7
)

// golden returns the expected full render for seed, or nil when the
// repository pins none for it.
func (o opts) golden(seed int64) ([]byte, error) {
	if seed != goldenSeed {
		return nil, nil
	}
	return os.ReadFile(filepath.Join(o.root, "cmd", "figures", "testdata", "figures_seed42.golden"))
}

// checkRender compares a rendered figure file against want (the golden, or
// the run's reference render when no golden exists).
func checkRender(r *result, path string, want []byte, what string) bool {
	got, err := os.ReadFile(path)
	if err != nil {
		r.fail("%s: %v", what, err)
		return false
	}
	if !bytes.Equal(got, want) {
		r.fail("%s: rendered figures differ from the reference (%d vs %d bytes)", what, len(got), len(want))
		return false
	}
	return true
}

// warmups runs a small instance of the workload's CLI (paging the binary in
// and letting the OS caches settle) three times and returns the median time,
// the workload's set-up time.
func (o opts) warmups(name string, args ...string) (float64, error) {
	var rounds []float64
	for i := 0; i < 3; i++ {
		j, err := o.runJob(nil, name, args...)
		if err != nil {
			return 0, err
		}
		rounds = append(rounds, j.wall.Seconds())
	}
	return median(rounds), nil
}

// another reports whether a closed loop that started at start and has run
// done jobs has time for one more within the run's -seconds, judged by the
// mean time per job so far. A run always makes at least one job.
func (o opts) another(start time.Time, done int) bool {
	if done == 0 {
		return true
	}
	elapsed := time.Since(start).Seconds()
	return elapsed+elapsed/float64(done) <= o.seconds
}

// figuresArgs renders all ten figures against cache into out.
func (o opts) figuresArgs(cache, out string) []string {
	return []string{"-seed", strconv.FormatInt(o.seed, 10), "-cache", cache, "-out", out}
}

// runFiguresCold: each job renders Figs 1–10 into a fresh empty cache. After
// each timed job an untimed warm render over the cache it filled must equal
// the cold render (and both must equal the golden at seed 42).
func runFiguresCold(o opts) (*result, error) {
	r := newResult()
	setup, err := o.warmups("figures", "-figure", "7", "-no-cache", "-seed", strconv.FormatInt(o.seed, 10))
	if err != nil {
		return nil, err
	}
	golden, err := o.golden(o.seed)
	if err != nil {
		return nil, err
	}
	var jobs []job
	start := time.Now()
	for i := 0; o.another(start, len(jobs)); i++ {
		cache := filepath.Join(o.work, fmt.Sprintf("cache-%d", i))
		cold := filepath.Join(o.work, fmt.Sprintf("cold-%d.txt", i))
		warm := filepath.Join(o.work, fmt.Sprintf("warm-%d.txt", i))
		r.attempted++
		j, err := o.runJob(nil, "figures", o.figuresArgs(cache, cold)...)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		logf("figures-cold job %d: %.3fs wall, %.3fs cpu, %.0f MiB", i, j.wall.Seconds(), j.cpu.Seconds(), j.rssMiB)
		ok := true
		if golden != nil {
			ok = checkRender(r, cold, golden, "cold render vs golden")
		}
		if _, err := o.runJob(nil, "figures", o.figuresArgs(cache, warm)...); err != nil {
			return nil, err
		}
		want, err := os.ReadFile(cold)
		if err != nil {
			return nil, err
		}
		ok = checkRender(r, warm, want, "warm render vs cold render") && ok
		if !ok {
			r.failed++
		}
		_ = os.RemoveAll(cache)
	}
	batchMetrics(r, jobs, setup)
	return r, nil
}

// runFiguresWarm: set-up fills a fresh cache with one cold render (timed as
// setup_s); each job re-renders against it and must equal that render, or
// the golden where one exists.
func runFiguresWarm(o opts) (*result, error) {
	r := newResult()
	cache := filepath.Join(o.work, "cache")
	ref := filepath.Join(o.work, "cold.txt")
	start := time.Now()
	if _, err := o.runJob(nil, "figures", o.figuresArgs(cache, ref)...); err != nil {
		return nil, err
	}
	setup := time.Since(start).Seconds()
	want, err := os.ReadFile(ref)
	if err != nil {
		return nil, err
	}
	if golden, err := o.golden(o.seed); err != nil {
		return nil, err
	} else if golden != nil {
		if !bytes.Equal(golden, want) {
			r.fail("cold set-up render differs from the golden")
		}
		want = golden
	}
	var jobs []job
	start = time.Now()
	for i := 0; o.another(start, len(jobs)); i++ {
		out := filepath.Join(o.work, fmt.Sprintf("warm-%d.txt", i))
		r.attempted++
		j, err := o.runJob(nil, "figures", o.figuresArgs(cache, out)...)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		if !checkRender(r, out, want, fmt.Sprintf("warm render %d", i)) {
			r.failed++
		}
		_ = os.Remove(out)
	}
	batchMetrics(r, jobs, setup)
	return r, nil
}

func (o opts) scaleArgs(sats, days int) []string {
	return []string{"scale", "-sats", strconv.Itoa(sats), "-days", strconv.Itoa(days), "-seed", strconv.FormatInt(o.seed, 10)}
}

// checkScaleReport verifies the report's header lines and digest shape.
func checkScaleReport(r *result, rep []byte, seed int64) bool {
	lines := map[string]string{}
	for _, l := range strings.Split(string(rep), "\n") {
		if k, v, ok := strings.Cut(l, " "); ok {
			lines[k] = v
		}
	}
	want := map[string]string{
		"satellites": strconv.Itoa(scaleSats),
		"days":       strconv.Itoa(scaleDays),
		"seed":       strconv.FormatInt(seed, 10),
		"tracks":     strconv.Itoa(scaleSats),
	}
	for k, v := range want {
		if lines[k] != v {
			r.fail("scale report: %s = %q, want %q", k, lines[k], v)
			return false
		}
	}
	if d := lines["digest"]; len(d) != 64 {
		r.fail("scale report: missing or malformed digest line %q", d)
		return false
	}
	return true
}

// runScale: each job is the 100k-satellite, 7-day chunked scale-out. Every
// report must be well formed and byte-identical to the run's first.
func runScale(o opts) (*result, error) {
	r := newResult()
	setup, err := o.warmups("cosmicdance", o.scaleArgs(20000, 2)...)
	if err != nil {
		return nil, err
	}
	var jobs []job
	var ref []byte
	start := time.Now()
	for i := 0; o.another(start, len(jobs)); i++ {
		var out bytes.Buffer
		r.attempted++
		j, err := o.runJob(&out, "cosmicdance", o.scaleArgs(scaleSats, scaleDays)...)
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, j)
		ok := checkScaleReport(r, out.Bytes(), o.seed)
		if ref == nil {
			ref = out.Bytes()
		} else if !bytes.Equal(ref, out.Bytes()) {
			r.fail("scale report of job %d differs from job 0", i)
			ok = false
		}
		if !ok {
			r.failed++
		}
	}
	batchMetrics(r, jobs, setup)
	return r, nil
}
