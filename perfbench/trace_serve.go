package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/incremental"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spacetrack"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
	"cosmicdance/internal/wdc"
)

// endpointSpan names the span a serving request is timed under.
func endpointSpan(r *http.Request) string {
	switch {
	case r.URL.Path == "/NORAD/elements/gp.php" && strings.Contains(r.Header.Get("Accept-Encoding"), "gzip"):
		return "spacetrack.group_gzip"
	case r.URL.Path == "/NORAD/elements/gp.php":
		return "spacetrack.group"
	case r.URL.Path == "/history":
		return "spacetrack.history"
	case r.URL.Path == "/ingest":
		return "spacetrack.ingest"
	case r.URL.Path == "/v1/risk":
		return "incremental.risk_http"
	case r.URL.Path == "/v1/risk/stream":
		return "incremental.stream"
	}
	return "other"
}

// statusRecorder remembers the response status for the timing middleware.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (s *statusRecorder) WriteHeader(code int) {
	s.status = code
	s.ResponseWriter.WriteHeader(code)
}

func (s *statusRecorder) Flush() {
	if f, ok := s.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// timed wraps the daemon's handler with one span per request; a 304 is
// timed under its own span so the full-body figures stay comparable.
func timed(t *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		name := endpointSpan(r)
		start := time.Now()
		h.ServeHTTP(rec, r)
		if rec.status == http.StatusNotModified {
			name += ":304"
		}
		t.add(name, spanStat{wall: time.Since(start)})
	})
}

// meanMs is a span's mean call time in milliseconds.
func meanMs(sp spanStat) float64 {
	return ratio(float64(sp.wall)/float64(time.Millisecond), float64(sp.calls))
}

// serveGraph is spacetrackd's serving graph built in-process exactly as the
// daemon builds it with -fleet paper -rate 0: the simulated archive behind
// spacetrack.NewCatalog/NewServer, plus the incremental feed seeded from it.
type serveGraph struct {
	catalog  *spacetrack.Catalog
	srv      *spacetrack.Server
	feed     *incremental.Feed
	handler  http.Handler
	satHours float64
	seedSeq  uint64
}

func buildServeGraph(t *tracer, seed int64) (*serveGraph, error) {
	ctx := context.Background()
	g := &serveGraph{}
	var weather *dst.Index
	if err := t.do("spaceweather", func() (err error) { weather, err = spaceweather.Generate(spaceweather.Paper2020to2024()); return }); err != nil {
		return nil, err
	}
	var res *constellation.Result
	if err := t.do("constellation", func() (err error) {
		res, err = constellation.Run(ctx, constellation.PaperFleet(seed), weather)
		return
	}); err != nil {
		return nil, err
	}
	end := res.Start.Add(time.Duration(res.Hours) * time.Hour)
	g.satHours = satHours(res)
	g.catalog = spacetrack.NewCatalog(spacetrack.NewResultArchive(group, res), end)
	srv := spacetrack.NewServer(g.catalog, end)
	srv.RatePerSec = 0
	boot := time.Now()
	srv.Now = func() time.Time { return end.Add(time.Since(boot)) }
	srv.Trace = obs.NewIDStream(uint64(seed), 0)
	flight := obs.NewFlightRecorder(1024, srv.Now)
	srv.Flight = flight
	srv.SLO = obs.NewSLOTracker(obs.Default(), obs.DefaultObjectives(), srv.Now)
	g.srv = srv

	feed := incremental.NewFeed(incremental.New(incremental.DefaultConfig()), 0)
	if err := t.do("incremental.seed", func() error {
		feed.IngestSamples(res.Samples)
		_, err := feed.WeatherIndex(weather)
		return err
	}); err != nil {
		return nil, err
	}
	feed.SetFlight(flight)
	srv.OnIngest = func(_ string, sets []*tle.TLE, _ int, trace obs.TraceID) {
		_ = t.do("incremental.ingest", func() error { feed.IngestTLEsTraced(sets, trace); return nil })
		feed.SetWatermarkLag(srv.Now())
	}
	feed.SetWatermarkLag(srv.Now())
	g.feed = feed
	g.seedSeq = feed.Risk().Seq

	mux := http.NewServeMux()
	mux.Handle("/dst", wdc.NewServer(weather).Handler())
	mux.Handle("/v1/", feed.Handler())
	mux.Handle("/", srv.Handler())
	g.handler = timed(t, mux)
	return g, nil
}

// directCalls times the serving layers one call at a time against the
// graph's state after the mix: catalog read, TLE format and parse, gzip,
// and the feed's risk view.
func directCalls(r *result, g *serveGraph) error {
	const reps = 20
	var sets []*tle.TLE
	start := time.Now()
	for i := 0; i < reps; i++ {
		sets = g.catalog.GroupLatest(group, g.srv.Now())
	}
	r.layer("spacetrack.catalog_read_ms", float64(time.Since(start))/float64(time.Millisecond)/reps)
	if len(sets) == 0 {
		return fmt.Errorf("catalog read returned no sets")
	}
	stripped := make([]*tle.TLE, len(sets))
	for i, s := range sets {
		c := *s
		c.Name = ""
		stripped[i] = &c
	}
	var body bytes.Buffer
	start = time.Now()
	for i := 0; i < reps; i++ {
		body.Reset()
		if err := tle.Write(&body, stripped); err != nil {
			return err
		}
	}
	r.layer("tle.format_ns_per_set", float64(time.Since(start).Nanoseconds())/float64(reps*len(sets)))
	start = time.Now()
	for i := 0; i < reps; i++ {
		parsed, err := tle.ReadAll(bytes.NewReader(body.Bytes()))
		if err != nil {
			return err
		}
		if len(parsed) != len(sets) {
			return fmt.Errorf("parsed %d of %d formatted sets", len(parsed), len(sets))
		}
	}
	r.layer("tle.parse_ns_per_set", float64(time.Since(start).Nanoseconds())/float64(reps*len(sets)))
	var zipped bytes.Buffer
	start = time.Now()
	for i := 0; i < reps; i++ {
		zipped.Reset()
		zw := gzip.NewWriter(&zipped)
		if _, err := zw.Write(body.Bytes()); err != nil {
			return err
		}
		if err := zw.Close(); err != nil {
			return err
		}
	}
	r.layer("spacetrack.gzip_ms", float64(time.Since(start))/float64(time.Millisecond)/reps)
	r.layer("spacetrack.gzip_ratio", ratio(float64(zipped.Len()), float64(body.Len())))
	start = time.Now()
	for i := 0; i < reps; i++ {
		_ = g.feed.Risk()
	}
	r.layer("incremental.risk_ms", float64(time.Since(start))/float64(time.Millisecond)/reps)
	return nil
}

// traceServe: an untraced spacetrackd reference run of the open-loop
// windows, then the same graph built in-process behind a loopback listener
// with every layer timed, driven by the same seeded mix, then direct calls.
func traceServe(o opts) (*result, error) {
	r := tracedResult()

	// Untraced reference: the daemon binary, open-loop windows only.
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d, err := o.startDaemon(addr)
	if err != nil {
		return nil, err
	}
	ref, err := func() (*phases, error) {
		if err := waitHealthy("http://"+addr, d.exited, 150*time.Second); err != nil {
			return nil, err
		}
		c := newMixClient("http://"+addr, o.seed)
		defer c.close()
		if err := c.prime(); err != nil {
			return nil, err
		}
		return measureMix(o, c, nil, false)
	}()
	if _, serr := d.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}

	t := newTracer()
	t0, b0 := parallelCounts()
	g, err := buildServeGraph(t, o.seed)
	if err != nil {
		return nil, err
	}
	t1, b1 := parallelCounts()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: g.handler, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	c := newMixClient("http://"+ln.Addr().String(), o.seed)
	ph, err := func() (*phases, error) {
		defer c.close()
		if err := c.prime(); err != nil {
			return nil, err
		}
		return measureMix(o, c, nil, false)
	}()
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := hs.Shutdown(shutCtx); err == nil {
		err = serr
	}
	if serr := <-served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	if err := directCalls(r, g); err != nil {
		return nil, err
	}
	t.logSpans("serve")

	r.attempted = len(ref.all) + len(ph.all)
	r.failed = ref.failed() + ph.failed()
	if r.failed > 0 {
		r.fail("%d of %d serve-mixed requests failed validation or transport", r.failed, r.attempted)
	}
	fleet := t.get("constellation")
	r.layer("spaceweather.busy_s", t.get("spaceweather").wall.Seconds())
	r.layer("constellation.busy_s", fleet.wall.Seconds())
	r.layer("constellation.sat_hours", g.satHours)
	r.layer("constellation.cpu_ns_per_sat_hour", ratio(float64(fleet.cpu.Nanoseconds()), g.satHours))
	r.layer("constellation.utilization", utilization(fleet))
	r.layer("constellation.alloc_mib", mib(fleet.alloc))
	r.layer("parallel.tasks_per_batch", ratio(float64(t1-t0), float64(b1-b0)))
	r.layer("spacetrack.group_ms", meanMs(t.get("spacetrack.group")))
	r.layer("spacetrack.group_gzip_ms", meanMs(t.get("spacetrack.group_gzip")))
	r.layer("spacetrack.history_ms", meanMs(t.get("spacetrack.history")))
	r.layer("spacetrack.ingest_ms", meanMs(t.get("spacetrack.ingest")))
	var conditional, notModified int
	for _, s := range ph.all {
		if s.conditional {
			conditional++
			if s.notModified {
				notModified++
			}
		}
	}
	r.layer("spacetrack.not_modified_ratio", ratio(float64(notModified), float64(conditional)))
	r.layer("spacetrack.admission_rejects", float64(g.srv.RateLimited()+g.srv.Overloaded()))
	ingest := t.get("incremental.ingest")
	r.layer("incremental.ingest_us", ratio(float64(ingest.wall)/float64(time.Microsecond), float64(ingest.calls)))
	r.layer("incremental.deltas_per_ingest", ratio(float64(g.feed.Risk().Seq-g.seedSeq), float64(ingest.calls)))
	r.layer("incremental.stream_ms", meanMs(t.get("incremental.stream")))
	r.layer("incremental.seed_s", t.get("incremental.seed").wall.Seconds())
	r.layer("obs.trace_overhead_pct", 100*(ph.p25.Seconds()-ref.p25.Seconds())/ref.p25.Seconds())
	return r, nil
}
