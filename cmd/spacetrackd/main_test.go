package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/tle"
)

// startDaemon runs the daemon on a loopback port and returns its base URL
// plus the channel run's error will arrive on after cancellation.
func startDaemon(t *testing.T, ctx context.Context, extra ...string) (string, <-chan error) {
	t.Helper()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	args := append([]string{"-addr", "127.0.0.1:0", "-fleet", "small", "-rate", "0"}, extra...)
	go func() { errc <- run(ctx, args, ready) }()
	select {
	case addr := <-ready:
		return "http://" + addr, errc
	case err := <-errc:
		t.Fatalf("daemon exited before ready: %v", err)
	case <-time.After(2 * time.Minute):
		t.Fatal("daemon never became ready")
	}
	return "", nil
}

func TestDaemonServesAndShutsDownCleanly(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a year-long fleet")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errc := startDaemon(t, ctx)

	client, err := spacetrack.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	sets, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatalf("group fetch: %v", err)
	}
	if len(sets) == 0 {
		t.Fatal("daemon served an empty catalog")
	}
	cats := spacetrack.CatalogNumbers(sets)
	hist, err := client.FetchHistory(ctx, cats[0], sets[0].Epoch.AddDate(0, -1, 0), sets[0].Epoch)
	if err != nil {
		t.Fatalf("history fetch: %v", err)
	}
	if len(hist) == 0 {
		t.Fatal("daemon served an empty history")
	}
	// The Dst endpoint rides alongside.
	resp, err := http.Get(base + "/dst?format=wdc")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("dst endpoint: %v %v", resp, err)
	}
	resp.Body.Close()

	// Context cancellation (the SIGTERM path) must shut the server down
	// cleanly, not leak it or surface ErrServerClosed.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
}

func TestDaemonFaultsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a year-long fleet")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every other request fails with 503: a default client still succeeds
	// because its retry budget outlasts the schedule.
	base, errc := startDaemon(t, ctx, "-faults", "503:1/2")

	client, err := spacetrack.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	client.Sleep = func(ctx context.Context, d time.Duration) error { return ctx.Err() }
	sets, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatalf("fetch through faults: %v", err)
	}
	if len(sets) == 0 {
		t.Fatal("no sets through fault layer")
	}
	cancel()
	if err := <-errc; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestDaemonMetricsAndShutdownFlush exercises the introspection surface: the
// /metrics endpoint serves Prometheus text while the daemon runs, and a
// graceful shutdown flushes the final snapshot to the -metrics-json file.
func TestDaemonMetricsAndShutdownFlush(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a year-long fleet")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reportPath := filepath.Join(t.TempDir(), "metrics.json")
	base, errc := startDaemon(t, ctx, "-metrics-json", reportPath)

	client, err := spacetrack.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := client.Health(ctx); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	if _, err := client.FetchGroup(ctx, "starlink"); err != nil {
		t.Fatalf("group fetch: %v", err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		`spacetrack_server_requests_total{endpoint="group"}`,
		`spacetrack_server_requests_total{endpoint="healthz"}`,
		`spacetrack_group_render_total{result="hit"}`,
		`spacetrack_group_render_total{result="miss"}`,
		`spacetrack_group_render_total{result="uncacheable"}`,
		"constellation_runs_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// pprof stays off unless opted in with -pprof.
	resp, err = http.Get(base + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/pprof/ = %d without -pprof, want 404", resp.StatusCode)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatalf("shutdown did not flush the metrics report: %v", err)
	}
	var rep obs.RunReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("flushed report is not valid JSON: %v", err)
	}
	found := false
	for _, c := range rep.Metrics.Counters {
		if c.Name == "spacetrack_server_requests_total" && c.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Error("flushed report has no served-request counters")
	}
}

// TestDaemonLiveIngestAndGoroutineHygiene drives the write path end to end:
// POST /ingest lands a new element set that the very next group fetch
// serves, and a full daemon lifecycle returns the process to its goroutine
// baseline — the serving plane must not leak workers across shutdown.
func TestDaemonLiveIngestAndGoroutineHygiene(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a year-long fleet")
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	base, errc := startDaemon(t, ctx)

	client, err := spacetrack.NewClient(base, nil)
	if err != nil {
		t.Fatal(err)
	}
	sets, err := client.FetchGroup(ctx, "starlink")
	if err != nil || len(sets) == 0 {
		t.Fatalf("group fetch: %v (%d sets)", err, len(sets))
	}

	// Ingest a clone of an existing set under a fresh catalog number.
	clone := *sets[0]
	clone.CatalogNumber = 90901
	clone.Name = "INGEST-90901"
	var body bytes.Buffer
	if err := tle.Write(&body, []*tle.TLE{&clone}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/ingest?group=starlink", "text/plain", &body)
	if err != nil {
		t.Fatal(err)
	}
	reply, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, reply)
	}
	if got := strings.TrimSpace(string(reply)); got != `{"received":1,"applied":1}` {
		t.Fatalf("ingest reply = %s", got)
	}

	after, err := client.FetchGroup(ctx, "starlink")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(sets)+1 {
		t.Fatalf("post-ingest catalog has %d sets, want %d", len(after), len(sets)+1)
	}
	found := false
	for _, s := range after {
		if s.CatalogNumber == 90901 {
			found = true
		}
	}
	if !found {
		t.Fatal("ingested satellite missing from the served catalog")
	}

	// The same ingest must have advanced the live decay-risk feed: the view
	// reflects the seeded archive plus the new batch, and the delta stream
	// drains cleanly.
	riskResp, err := http.Get(base + "/v1/risk")
	if err != nil {
		t.Fatal(err)
	}
	var risk struct {
		Version      uint64 `json:"version"`
		Seq          uint64 `json:"seq"`
		Tracks       int    `json:"tracks"`
		Observations int    `json:"observations"`
	}
	if err := json.NewDecoder(riskResp.Body).Decode(&risk); err != nil {
		t.Fatal(err)
	}
	riskResp.Body.Close()
	if riskResp.StatusCode != http.StatusOK || riskResp.Header.Get("ETag") == "" {
		t.Fatalf("risk view: %d (ETag %q)", riskResp.StatusCode, riskResp.Header.Get("ETag"))
	}
	if risk.Tracks == 0 || risk.Version == 0 || risk.Observations == 0 {
		t.Fatalf("thin risk view after ingest: %+v", risk)
	}
	streamResp, err := http.Get(base + "/v1/risk/stream?nowait=1&limit=3")
	if err != nil {
		t.Fatal(err)
	}
	stream, _ := io.ReadAll(streamResp.Body)
	streamResp.Body.Close()
	if streamResp.StatusCode != http.StatusOK || !strings.Contains(string(stream), "id: ") {
		t.Fatalf("risk stream: %d %q", streamResp.StatusCode, stream)
	}

	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
	// The same settle loop the parallel pool tests use: transient runtime
	// goroutines may take a few scheduler ticks to exit.
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutine leak across daemon lifecycle: %d before, %d after",
		before, runtime.NumGoroutine())
}

// TestDaemonObservabilityPlane drives the serving-plane black box end to
// end: traced requests echo their Cosmic-Trace IDs and appear in
// /debug/flightrecorder, a 429 storm past -burst-threshold auto-dumps the
// ring naming every rejected trace, /healthz carries the daemon facts, and
// /metrics publishes the SLO burn-rate gauges at scrape time. Shutdown
// rewrites the dump.
func TestDaemonObservabilityPlane(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a year-long fleet")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	dumpPath := filepath.Join(t.TempDir(), "flight.json")
	base, errc := startDaemon(t, ctx,
		"-rate", "1", "-burst", "2", "-burst-threshold", "3", "-flight-dump", dumpPath)

	get := func(path, trace string) *http.Response {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if trace != "" {
			req.Header.Set(obs.TraceHeader, trace)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// /healthz carries the catalog epoch and the daemon-contributed facts.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health spacetrack.HealthStatus
	err = json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || len(health.Groups) == 0 || health.Groups[0].Group != "starlink" {
		t.Fatalf("healthz = %+v", health)
	}
	for _, key := range []string{"fleet", "go", "feed_version", "feed_seq"} {
		if health.Info[key] == "" {
			t.Fatalf("healthz info missing %q: %+v", key, health.Info)
		}
	}

	// Hammer the group endpoint past burst 2 with traced requests: the
	// per-client bucket rejects the excess and the burst hook (threshold 3)
	// auto-dumps the ring.
	const path = "/NORAD/elements/gp.php?GROUP=starlink&FORMAT=tle"
	stream := obs.NewIDStream(99, 1)
	var rejected []string
	for i := 0; i < 7; i++ {
		id := stream.Next().String()
		r := get(path, id)
		if got := r.Header.Get(obs.TraceHeader); got != id {
			t.Fatalf("request %d echoed trace %q, want %q", i, got, id)
		}
		if r.StatusCode == http.StatusTooManyRequests {
			rejected = append(rejected, id)
		}
	}
	if len(rejected) < 3 {
		t.Fatalf("only %d rejects of 7 rapid requests at rate 1 burst 2", len(rejected))
	}

	// The live endpoint and the auto-dumped file agree, and both name every
	// rejected trace.
	checkDump := func(data []byte, where string, want []string) {
		t.Helper()
		var dump obs.FlightDump
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatalf("%s: %v", where, err)
		}
		if dump.Schema != "flightrecorder/v1" {
			t.Fatalf("%s schema = %q", where, dump.Schema)
		}
		named := map[string]bool{}
		for _, ev := range dump.Events {
			if ev.Kind == "reject" {
				named[ev.Trace] = true
			}
		}
		for _, id := range want {
			if !named[id] {
				t.Fatalf("%s does not name rejected trace %s", where, id)
			}
		}
	}
	resp, err = http.Get(base + "/debug/flightrecorder")
	if err != nil {
		t.Fatal(err)
	}
	live, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder endpoint: %d %v", resp.StatusCode, err)
	}
	checkDump(live, "/debug/flightrecorder", rejected)
	// The auto-dump fires at the trip point, so it names the rejects seen up
	// to the threshold; later rejects arrive in the shutdown dump.
	burstDump, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatalf("burst auto-dump missing: %v", err)
	}
	checkDump(burstDump, "burst auto-dump", rejected[:3])

	// /metrics publishes the SLO gauges at scrape time.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`spacetrack_slo_burn_rate{endpoint="group"}`,
		`spacetrack_slo_p99_ms{endpoint="group"}`,
		`spacetrack_slo_pass{endpoint="ingest"}`,
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Shutdown rewrites the dump with the final ring.
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("shutdown returned %v, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not shut down after cancellation")
	}
	finalDump, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	checkDump(finalDump, "shutdown dump", rejected)
}

func TestDaemonRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-fleet", "bogus"},
		{"-faults", "nonsense:1/2"},
		{"-faults", "429:9/3"},
		{"-slo", "group:200:400"},
		{"-slo", "group:99"},
	} {
		if err := run(context.Background(), args, nil); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}
