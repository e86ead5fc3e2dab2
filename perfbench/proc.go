package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// job is one measured execution of a prebuilt binary.
type job struct {
	wall   time.Duration // exec to exit
	cpu    time.Duration // child user+sys from rusage
	rssMiB float64       // child max RSS from rusage
}

// command prepares a CLI invocation whose scratch writes stay under work.
// The child is killed if the benchmark dies first, so no daemon outlives it.
func (o opts) command(name string, args ...string) *exec.Cmd {
	cmd := exec.Command(filepath.Join(o.bin, name), args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+o.work)
	cmd.Dir = o.work
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	return cmd
}

// runJob executes one CLI to completion, stdout to out, and measures it.
func (o opts) runJob(out io.Writer, name string, args ...string) (job, error) {
	cmd := o.command(name, args...)
	var stderr bytes.Buffer
	cmd.Stdout = out
	cmd.Stderr = &stderr
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return job{}, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, tail(stderr.String(), 2000))
	}
	return jobStats(cmd.ProcessState, wall), nil
}

func jobStats(ps *os.ProcessState, wall time.Duration) job {
	j := job{wall: wall, cpu: ps.UserTime() + ps.SystemTime()}
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		j.rssMiB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return j
}

func tail(s string, n int) string {
	if len(s) > n {
		return "..." + s[len(s)-n:]
	}
	return s
}

// procCPU reads a live process's accumulated user+sys CPU from /proc.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th fields overall, in clock ticks (USER_HZ = 100 on Linux).
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc stat")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// batchMetrics reports the end-to-end metrics of a closed loop of jobs.
func batchMetrics(r *result, jobs []job, setup float64) {
	var walls, cpus, rss []float64
	for _, j := range jobs {
		walls = append(walls, j.wall.Seconds())
		cpus = append(cpus, j.cpu.Seconds())
		rss = append(rss, j.rssMiB)
	}
	r.set("wall_s", "s", median(walls))
	r.set("wall_p90_s", "s", percentile(walls, 90))
	r.set("cpu_s", "s", median(cpus))
	r.set("peak_rss_mib", "MiB", median(rss))
	r.set("ops_per_s", "1/s", float64(len(jobs))/sum(walls))
	r.set("setup_s", "s", setup)
}
