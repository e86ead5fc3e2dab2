package spacetrack

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

const groupPath = "/NORAD/elements/gp.php?GROUP=starlink"

// renderCounts snapshots spacetrack_group_render_total.
type renderCounts struct{ hit, miss, uncacheable int64 }

func readRenderCounts() renderCounts {
	return renderCounts{metricRenderHit.Value(), metricRenderMiss.Value(), metricRenderUncacheable.Value()}
}

func (c renderCounts) since(before renderCounts) renderCounts {
	return renderCounts{c.hit - before.hit, c.miss - before.miss, c.uncacheable - before.uncacheable}
}

// inflate decodes a gzip body.
func inflate(t *testing.T, body []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := zr.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

// uncachedBody renders the identity body of the group's latest sets at now
// in format, without going near a server.
func uncachedBody(t *testing.T, a Archive, format string, now time.Time) []byte {
	t.Helper()
	plain, _, err := renderGroup(a.GroupLatest("starlink", now), renderKey{group: "starlink", format: format})
	if err != nil {
		t.Fatal(err)
	}
	return plain
}

// TestFutureEpochIngestRotatesValidators is the regression test for false
// 304s: a set ingested with an epoch after the service clock becomes
// visible later in the same validator hour, so the validators must not let
// a client keep the body it fetched before that.
func TestFutureEpochIngestRotatesValidators(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	var offset atomic.Int64
	srv.Now = func() time.Time { return end.Add(time.Duration(offset.Load())) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	const path = groupPath + "&FORMAT=tle"

	template := archive.GroupLatest("starlink", end)[0]
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 90077, end.Add(10*time.Minute))}, end)
	resp, early := doGet(t, ts, path, nil)
	if resp.StatusCode != http.StatusOK || strings.Contains(string(early), "90077") {
		t.Fatalf("read at ingest time: %d, future set visible=%v", resp.StatusCode, strings.Contains(string(early), "90077"))
	}
	etag, lastMod := resp.Header.Get("ETag"), resp.Header.Get("Last-Modified")

	offset.Store(int64(20 * time.Minute))
	for name, hdr := range map[string]string{"If-None-Match": etag, "If-Modified-Since": lastMod} {
		resp, body := doGet(t, ts, path, map[string]string{name: hdr})
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "90077") {
			t.Fatalf("%s after the epoch passed: %d with %d bytes, want 200 with the new set", name, resp.StatusCode, len(body))
		}
		if resp.Header.Get("ETag") == etag {
			t.Fatalf("%s: ETag %s did not rotate although the body changed", name, etag)
		}
	}
}

// TestNotModifiedRFC9110 covers If-None-Match lists, "*", weak comparison
// and its precedence over If-Modified-Since.
func TestNotModifiedRFC9110(t *testing.T) {
	const etag = `"g-v1-5"`
	lastMod := time.Date(2024, 5, 10, 12, 0, 0, 0, time.UTC)
	at := lastMod.Format(http.TimeFormat)
	before := lastMod.Add(-time.Second).Format(http.TimeFormat)
	cases := []struct {
		name string
		inm  []string
		ims  string
		want bool
	}{
		{"no conditions", nil, "", false},
		{"exact tag", []string{etag}, "", true},
		{"star", []string{"*"}, "", true},
		{"weak request tag", []string{`W/"g-v1-5"`}, "", true},
		{"list", []string{`"a", "g-v1-5"`}, "", true},
		{"list without spaces", []string{`"a","g-v1-5","b"`}, "", true},
		{"list with empty elements", []string{` , ,"g-v1-5"`}, "", true},
		{"tag containing a comma", []string{`"g-v1-5,x", "b"`}, "", false},
		{"second field line", []string{`"a"`, `"g-v1-5"`}, "", true},
		{"no match", []string{`"a", W/"b"`}, "", false},
		{"unquoted", []string{`g-v1-5`}, "", false},
		{"unterminated", []string{`"g-v1-5`}, "", false},
		{"prefix only", []string{`"g-v1"`}, "", false},
		{"if-none-match wins over a matching date", []string{`"a"`}, at, false},
		{"date equal", nil, at, true},
		{"date before", nil, before, false},
		{"malformed date", nil, "yesterday", false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodGet, "/", nil)
			for _, v := range c.inm {
				r.Header.Add("If-None-Match", v)
			}
			if c.ims != "" {
				r.Header.Set("If-Modified-Since", c.ims)
			}
			if got := notModified(r, etag, lastMod); got != c.want {
				t.Fatalf("notModified = %v, want %v", got, c.want)
			}
		})
	}
}

// TestAcceptsGzipRFC9110 covers Accept-Encoding weights: q=0 refuses a
// coding, "*" stands for unlisted codings, x-gzip aliases gzip.
func TestAcceptsGzipRFC9110(t *testing.T) {
	cases := []struct {
		fields []string
		want   bool
	}{
		{nil, false},
		{[]string{""}, false},
		{[]string{"gzip"}, true},
		{[]string{"GZip"}, true},
		{[]string{"x-gzip"}, true},
		{[]string{"gzip;q=0"}, false},
		{[]string{"gzip; q=0.000"}, false},
		{[]string{"gzip;Q=0.5"}, true},
		{[]string{"gzip;q=1.0"}, true},
		{[]string{"gzip;q=bogus"}, false},
		{[]string{"gzip;q=2"}, false},
		{[]string{"gzip;level=9"}, true},
		{[]string{"deflate, gzip;q=0.1"}, true},
		{[]string{"deflate", "gzip"}, true},
		{[]string{"identity"}, false},
		{[]string{"br, deflate"}, false},
		{[]string{"*"}, true},
		{[]string{"*;q=0"}, false},
		{[]string{"*, gzip;q=0"}, false},
		{[]string{"gzip;q=0, *"}, false},
		{[]string{"br;q=1, *;q=0.5"}, true},
		{[]string{"gzipx"}, false},
	}
	for _, c := range cases {
		r := httptest.NewRequest(http.MethodGet, "/", nil)
		for _, f := range c.fields {
			r.Header.Add("Accept-Encoding", f)
		}
		if got := acceptsGzip(r); got != c.want {
			t.Errorf("Accept-Encoding %q: acceptsGzip = %v, want %v", c.fields, got, c.want)
		}
	}

	// End to end: a refused gzip gets the identity body, group and history.
	archive, _, end := buildArchive(t, 5)
	srv := NewServer(NewCatalog(archive, end), end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	catNum := archive.GroupLatest("starlink", end)[0].CatalogNumber
	for _, path := range []string{groupPath + "&FORMAT=tle", "/history?catalog=" + strconv.Itoa(catNum)} {
		resp, body := doGet(t, ts, path, map[string]string{"Accept-Encoding": "gzip;q=0, deflate"})
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Encoding") != "" {
			t.Fatalf("%s with gzip;q=0: %d, Content-Encoding %q", path, resp.StatusCode, resp.Header.Get("Content-Encoding"))
		}
		if _, err := tle.ReadAll(bytes.NewReader(body)); err != nil || len(body) == 0 {
			t.Fatalf("%s: identity body unreadable (%d bytes): %v", path, len(body), err)
		}
	}
}

// TestGroupRenderCache pins the cache's contract: one render per (group,
// FORMAT, encoding) and version, byte-identical to an uncached render; a
// version bump or a pending future epoch forces a re-render; an
// unversioned archive is never cached.
func TestGroupRenderCache(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	var offset atomic.Int64
	srv.Now = func() time.Time { return end.Add(time.Duration(offset.Load())) }
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// check reads every format in both encodings n times and returns the
	// render counts the reads moved. Every body must equal an uncached
	// render at the service time.
	check := func(n int) renderCounts {
		t.Helper()
		before := readRenderCounts()
		now := srv.Now()
		for _, format := range []string{"tle", "3le", "json"} {
			want := uncachedBody(t, cat, format, now)
			for i := 0; i < n; i++ {
				for _, gz := range []bool{true, false} {
					hdr := map[string]string{}
					if gz {
						hdr["Accept-Encoding"] = "gzip"
					}
					resp, body := doGet(t, ts, groupPath+"&FORMAT="+format, hdr)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d", format, resp.StatusCode)
					}
					if gz {
						body = inflate(t, body)
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("%s gzip=%v read %d: body differs from an uncached render", format, gz, i)
					}
					if got := resp.Header.Get("Content-Length"); got == "" {
						t.Fatalf("%s gzip=%v: no Content-Length", format, gz)
					}
				}
			}
		}
		return readRenderCounts().since(before)
	}

	// Settled: the gzip read of each format renders once and also caches
	// the identity body, so 4 reads per (format, encoding) render 3 times.
	if got, want := check(4), (renderCounts{hit: 21, miss: 3}); got != want {
		t.Fatalf("settled reads: %+v, want %+v", got, want)
	}
	// The default FORMAT shares the 3le entry.
	before := readRenderCounts()
	if resp, body := doGet(t, ts, groupPath, nil); resp.StatusCode != http.StatusOK ||
		!bytes.Equal(body, uncachedBody(t, cat, "3le", srv.Now())) {
		t.Fatalf("default FORMAT read: %d", resp.StatusCode)
	}
	if got := readRenderCounts().since(before); got != (renderCounts{hit: 1}) {
		t.Fatalf("default FORMAT read: %+v, want one hit", got)
	}

	// A version bump re-renders once per format.
	template := archive.GroupLatest("starlink", end)[0]
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 90100, end.Add(-time.Minute))}, end)
	if got, want := check(2), (renderCounts{hit: 9, miss: 3}); got != want {
		t.Fatalf("after a version bump: %+v, want %+v", got, want)
	}

	// A future epoch is pending until the clock passes it: every read
	// renders, and the body follows the clock.
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 90101, end.Add(2*time.Minute))}, end)
	if got, want := check(2), (renderCounts{uncacheable: 12}); got != want {
		t.Fatalf("pending future epoch: %+v, want %+v", got, want)
	}
	offset.Store(int64(2 * time.Minute))
	if got, want := check(2), (renderCounts{hit: 9, miss: 3}); got != want {
		t.Fatalf("clock at the horizon: %+v, want %+v", got, want)
	}

	// Without versions nothing can prove a body current.
	plain := httptest.NewServer(NewServer(archive, end).Handler())
	defer plain.Close()
	before = readRenderCounts()
	for i := 0; i < 2; i++ {
		if resp, _ := doGet(t, plain, groupPath+"&FORMAT=tle", nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("unversioned read: %d", resp.StatusCode)
		}
	}
	if got := readRenderCounts().since(before); got != (renderCounts{uncacheable: 2}) {
		t.Fatalf("unversioned reads: %+v, want two uncacheable", got)
	}
}

// TestGroupRenderCacheCoherentUnderIngest is the cache's race gate: readers
// fetch every format and encoding while a writer ingests. Every 200 must
// be byte-identical to an uncached render of the version its ETag names,
// and a gzip body must inflate to the identity body of that version.
func TestGroupRenderCacheCoherentUnderIngest(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	srv := NewServer(cat, end)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	template := archive.GroupLatest("starlink", end)[0]
	const (
		readers = 4
		batches = 20
	)
	batch := func(i int) []*tle.TLE {
		return []*tle.TLE{
			cloneSet(template, 91000+i, end.Add(-time.Duration(i+1)*time.Minute)),
			cloneSet(template, template.CatalogNumber, end.Add(-time.Duration(batches-i)*time.Second)),
		}
	}

	type response struct {
		format string
		gzip   bool
		etag   string
		body   []byte
	}
	var (
		mu        sync.Mutex
		responses []response
		wg        sync.WaitGroup
	)
	stop := make(chan struct{})
	errs := make(chan error, readers)
	hc := &http.Client{Transport: &http.Transport{DisableCompression: true}}
	defer hc.CloseIdleConnections()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				format := []string{"tle", "3le", "json"}[(r+i)%3]
				gz := (r+i/3)%2 == 0
				req, err := http.NewRequest(http.MethodGet, ts.URL+groupPath+"&FORMAT="+format, nil)
				if err != nil {
					errs <- err
					return
				}
				if gz {
					req.Header.Set("Accept-Encoding", "gzip")
				}
				resp, err := hc.Do(req)
				if err != nil {
					errs <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				if cerr := resp.Body.Close(); err == nil {
					err = cerr
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("reader %d: status %d: %v", r, resp.StatusCode, err)
					return
				}
				mu.Lock()
				responses = append(responses, response{format, gz, resp.Header.Get("ETag"), body})
				mu.Unlock()
			}
		}(r)
	}
	for i := 0; i < batches; i++ {
		cat.Ingest("starlink", batch(i), end)
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Replay the batches into a fresh catalog: version v shows the base
	// plus the first v-1 batches.
	replay := NewCatalog(archive, end)
	want := map[string]map[uint64][]byte{}
	for v := uint64(1); v <= batches+1; v++ {
		if v > 1 {
			replay.Ingest("starlink", batch(int(v)-2), end)
		}
		for _, format := range []string{"tle", "3le", "json"} {
			if want[format] == nil {
				want[format] = map[uint64][]byte{}
			}
			want[format][v] = uncachedBody(t, replay, format, end)
		}
	}
	seen := map[uint64]bool{}
	for _, resp := range responses {
		var v uint64
		var cut int64
		if _, err := fmt.Sscanf(resp.etag, `"starlink-v%d-%d"`, &v, &cut); err != nil {
			t.Fatalf("unparseable ETag %s: %v", resp.etag, err)
		}
		seen[v] = true
		body := resp.body
		if resp.gzip {
			body = inflate(t, body)
		}
		if !bytes.Equal(body, want[resp.format][v]) {
			t.Fatalf("%s gzip=%v body labelled version %d differs from an uncached render of it", resp.format, resp.gzip, v)
		}
	}
	if len(responses) == 0 || len(seen) < 2 {
		t.Fatalf("%d responses over %d versions: the readers did not overlap the ingests", len(responses), len(seen))
	}
}

// failingArchive serves one element set the encoder must refuse.
type failingArchive struct{ *ResultArchive }

func (f failingArchive) GroupLatest(string, time.Time) []*tle.TLE {
	return []*tle.TLE{{CatalogNumber: 100000, MeanMotion: 15, Epoch: stStart}}
}

// TestGroupRenderErrorIs500: the body is rendered before the status line,
// so an element set the encoder refuses answers 500, not a short 200.
func TestGroupRenderErrorIs500(t *testing.T) {
	archive, _, end := buildArchive(t, 2)
	ts := httptest.NewServer(NewServer(failingArchive{archive}, end).Handler())
	defer ts.Close()
	for _, hdr := range []map[string]string{nil, {"Accept-Encoding": "gzip"}} {
		resp, body := doGet(t, ts, groupPath+"&FORMAT=tle", hdr)
		if resp.StatusCode != http.StatusInternalServerError || resp.Header.Get("ETag") != "" {
			t.Fatalf("unencodable set: %d, ETag %q, body %q", resp.StatusCode, resp.Header.Get("ETag"), body)
		}
	}
}
