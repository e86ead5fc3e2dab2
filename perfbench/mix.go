package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// kind is one request type of the serve-mixed traffic mix.
type kind int

const (
	kPoll    kind = iota // conditional group poll (If-None-Match)
	kGzip                // full gzip group read
	kHistory             // 30-day history window of one catalog
	kRisk                // conditional /v1/risk
	kStream              // /v1/risk/stream?nowait=1 cursor drain
	kIngest              // POST /ingest of refreshed element sets
	nKinds
)

var kindNames = [nKinds]string{"poll", "group_gzip", "history", "risk", "stream", "ingest"}

// mixPercent is the traffic mix, in percent per kind.
var mixPercent = [nKinds]int{35, 15, 25, 10, 10, 5}

// sloEndpoint maps each kind to the daemon objective it is judged by; the
// feed endpoints have none of their own and use the group objective.
var sloEndpoint = [nKinds]string{"group", "group", "history", "group", "group", "ingest"}

const (
	historyWindow = 30 * 24 * time.Hour
	ingestBatch   = 8 // element sets per POST /ingest
	group         = "starlink"
)

// plan is one scheduled request: its offset from the phase start and its
// seeded parameters.
type plan struct {
	at   time.Duration
	k    kind
	cat  int       // history: catalog; ingest: first template index
	from time.Time // history window start
}

// sample is one request's outcome.
type sample struct {
	k           kind
	late        time.Duration // send time minus due time
	latency     time.Duration // completion minus due time
	ok          bool
	conditional bool
	notModified bool
}

// mixClient drives the mix against one server and validates every response.
type mixClient struct {
	base  string
	hc    *http.Client
	first time.Time // first epoch of the fleet (history windows start here)

	// Learned by prime from a full group read.
	expectSets int
	cats       []int
	templates  []*tle.TLE
	end        time.Time // newest epoch in the catalog at boot

	ingestSeq atomic.Int64

	mu       sync.Mutex
	groupTag string
	riskTag  string
	cursor   uint64
}

func newMixClient(base string, seed int64) *mixClient {
	n := runtime.NumCPU()
	tr := &http.Transport{
		MaxConnsPerHost:     n,
		MaxIdleConnsPerHost: n,
		DisableCompression:  true,
	}
	return &mixClient{
		base:  base,
		hc:    &http.Client{Transport: tr, Timeout: 30 * time.Second},
		first: constellation.PaperFleet(seed).Start.UTC(),
	}
}

func (c *mixClient) close() { c.hc.CloseIdleConnections() }

// prime reads the full group once to learn the set count, the catalogs and
// the archive frontier.
func (c *mixClient) prime() error {
	resp, err := c.hc.Get(c.base + "/NORAD/elements/gp.php?GROUP=" + group + "&FORMAT=tle")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("prime: group read: %s", resp.Status)
	}
	sets, err := tle.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("prime: %v", err)
	}
	if len(sets) < ingestBatch {
		return fmt.Errorf("prime: only %d sets in group %s", len(sets), group)
	}
	c.expectSets = len(sets)
	c.templates = sets
	for _, t := range sets {
		c.cats = append(c.cats, t.CatalogNumber)
		if t.Epoch.After(c.end) {
			c.end = t.Epoch
		}
	}
	c.groupTag = resp.Header.Get("ETag")
	return nil
}

// deckSize is the number of requests over which the mix holds exactly.
const deckSize = 100

// deal draws n requests of the mix with their seeded parameters. Kinds come
// from seeded shuffles of a 100-card deck holding mixPercent cards per kind,
// so n a multiple of deckSize follows the mix exactly and runs differ only in
// order and parameters, not in proportions.
func (c *mixClient) deal(rng *rand.Rand, n int) []plan {
	plans := make([]plan, 0, n)
	var deck []kind
	for len(plans) < n {
		if len(deck) == 0 {
			for k := kind(0); k < nKinds; k++ {
				for i := 0; i < mixPercent[k]; i++ {
					deck = append(deck, k)
				}
			}
			rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
		}
		p := plan{k: deck[len(deck)-1]}
		deck = deck[:len(deck)-1]
		switch p.k {
		case kHistory:
			span := c.end.Sub(c.first) - historyWindow
			p.cat = c.cats[rng.Intn(len(c.cats))]
			p.from = c.first.Add(time.Duration(rng.Int63n(int64(span)))).Truncate(time.Second)
		case kIngest:
			p.cat = rng.Intn(len(c.templates))
		}
		plans = append(plans, p)
	}
	return plans
}

// schedule gives plans seeded Poisson arrival offsets at rate req/s.
func schedule(rng *rand.Rand, rate float64, plans []plan) []plan {
	t := time.Duration(0)
	for i := range plans {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		plans[i].at = t
	}
	return plans
}

// closedLoop serves plans with one request in flight per connection and
// returns the outcomes and the completed-request throughput.
func (c *mixClient) closedLoop(plans []plan) ([]sample, float64) {
	out := make([]sample, len(plans))
	checks := make([]func() error, len(plans))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < len(plans); i = int(next.Add(1) - 1) {
				out[i], checks[i] = c.send(plans[i], time.Now())
			}
		}()
	}
	wg.Wait()
	rps := float64(len(plans)) / time.Since(start).Seconds()
	finish(out, checks)
	return out, rps
}

// openLoop sends the schedule on time regardless of completions and times
// each request from when it was due.
func (c *mixClient) openLoop(plans []plan) []sample {
	out := make([]sample, len(plans))
	checks := make([]func() error, len(plans))
	var wg sync.WaitGroup
	start := time.Now()
	for i, p := range plans {
		due := start.Add(p.at)
		sleepUntil(due)
		wg.Add(1)
		go func(i int, p plan) {
			defer wg.Done()
			out[i], checks[i] = c.send(p, due)
		}(i, p)
	}
	wg.Wait()
	finish(out, checks)
	return out
}

// send issues p, timing it from due, and returns its outcome with the body
// check still to run.
func (c *mixClient) send(p plan, due time.Time) (sample, func() error) {
	s := sample{k: p.k, late: time.Since(due)}
	rep, err := c.do(p)
	s.latency = time.Since(due)
	s.ok, s.conditional, s.notModified = err == nil, rep.conditional, rep.notModified
	if err != nil {
		logf("%s request failed: %v", kindNames[p.k], err)
	}
	return s, rep.check
}

// finish runs the body checks a window's requests left and marks the
// requests whose check fails. They run after the window so that parsing
// does not take the host's CPUs from the server while it is measured.
func finish(ss []sample, checks []func() error) {
	for i, check := range checks {
		if check == nil || !ss[i].ok {
			continue
		}
		if err := check(); err != nil {
			logf("%s response failed its check: %v", kindNames[ss[i].k], err)
			ss[i].ok = false
		}
	}
}

// sleepUntil returns at t. time.Sleep wakes up to a millisecond late on
// Linux (the poller's timeout granularity), which added ~0.6 ms of generator
// lateness to the median request; so it sleeps to within spinMargin of t and
// yields in a loop for the rest.
func sleepUntil(t time.Time) {
	const spinMargin = 1500 * time.Microsecond
	time.Sleep(time.Until(t) - spinMargin)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// reply is what a request's response left to know: whether the request was
// conditional and answered 304, and the check of its body (nil: none).
type reply struct {
	conditional, notModified bool
	check                    func() error
}

// do issues one request. Status, headers and the state later requests
// depend on (ETags, the stream cursor, ingest acks) are checked at once; the
// body checks are returned in the reply.
func (c *mixClient) do(p plan) (reply, error) {
	switch p.k {
	case kPoll:
		return c.poll()
	case kGzip:
		return c.gzipRead()
	case kHistory:
		return c.history(p.cat, p.from)
	case kRisk:
		return c.risk()
	case kStream:
		return reply{}, c.stream()
	}
	return reply{}, c.ingest(p.cat)
}

func (c *mixClient) get(path string, hdr map[string]string) (*http.Response, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// checkGroup parses a group body and checks its set count.
func (c *mixClient) checkGroup(body []byte) error {
	sets, err := tle.ReadAll(bytes.NewReader(body))
	if err != nil {
		return err
	}
	if len(sets) != c.expectSets {
		return fmt.Errorf("group body has %d sets, want %d", len(sets), c.expectSets)
	}
	return nil
}

func (c *mixClient) poll() (reply, error) {
	c.mu.Lock()
	tag := c.groupTag
	c.mu.Unlock()
	hdr := map[string]string{}
	if tag != "" {
		hdr["If-None-Match"] = tag
	}
	rep := reply{conditional: tag != ""}
	resp, body, err := c.get("/NORAD/elements/gp.php?GROUP="+group+"&FORMAT=tle", hdr)
	if err != nil {
		return rep, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		rep.notModified = true
		return rep, nil
	case http.StatusOK:
		c.mu.Lock()
		c.groupTag = resp.Header.Get("ETag")
		c.mu.Unlock()
		rep.check = func() error { return c.checkGroup(body) }
		return rep, nil
	}
	return rep, fmt.Errorf("poll: %s", resp.Status)
}

func (c *mixClient) gzipRead() (reply, error) {
	resp, body, err := c.get("/NORAD/elements/gp.php?GROUP="+group+"&FORMAT=tle", map[string]string{"Accept-Encoding": "gzip"})
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("gzip read: %s", resp.Status)
	}
	if resp.Header.Get("Content-Encoding") != "gzip" {
		return reply{}, fmt.Errorf("gzip read: Content-Encoding %q", resp.Header.Get("Content-Encoding"))
	}
	return reply{check: func() error {
		zr, err := gzip.NewReader(bytes.NewReader(body))
		if err != nil {
			return err
		}
		plain, err := io.ReadAll(zr)
		if err != nil {
			return err
		}
		return c.checkGroup(plain)
	}}, nil
}

func (c *mixClient) history(cat int, from time.Time) (reply, error) {
	to := from.Add(historyWindow)
	q := url.Values{"catalog": {strconv.Itoa(cat)}, "from": {from.Format(time.RFC3339)}, "to": {to.Format(time.RFC3339)}}
	resp, body, err := c.get("/history?"+q.Encode(), nil)
	if err != nil {
		return reply{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return reply{}, fmt.Errorf("history: %s", resp.Status)
	}
	return reply{check: func() error {
		sets, err := tle.ReadAll(bytes.NewReader(body))
		if err != nil {
			return err
		}
		prev := time.Time{}
		for _, t := range sets {
			if t.CatalogNumber != cat {
				return fmt.Errorf("history for %d returned catalog %d", cat, t.CatalogNumber)
			}
			// TLE epochs carry ~1 ms of rounding; allow a second of slack.
			if t.Epoch.Before(from.Add(-time.Second)) || t.Epoch.After(to.Add(time.Second)) {
				return fmt.Errorf("history for %d: epoch %s outside [%s, %s]", cat, t.Epoch, from, to)
			}
			if t.Epoch.Before(prev) {
				return fmt.Errorf("history for %d: epochs not ascending", cat)
			}
			prev = t.Epoch
		}
		return nil
	}}, nil
}

func (c *mixClient) risk() (reply, error) {
	c.mu.Lock()
	tag := c.riskTag
	c.mu.Unlock()
	hdr := map[string]string{}
	if tag != "" {
		hdr["If-None-Match"] = tag
	}
	rep := reply{conditional: tag != ""}
	resp, body, err := c.get("/v1/risk", hdr)
	if err != nil {
		return rep, err
	}
	switch resp.StatusCode {
	case http.StatusNotModified:
		rep.notModified = true
		return rep, nil
	case http.StatusOK:
		c.mu.Lock()
		c.riskTag = resp.Header.Get("ETag")
		c.mu.Unlock()
		rep.check = func() error {
			var view struct {
				Version *uint64 `json:"version"`
				Seq     *uint64 `json:"seq"`
			}
			if err := json.Unmarshal(body, &view); err != nil {
				return fmt.Errorf("risk: %v", err)
			}
			if view.Version == nil || view.Seq == nil {
				return fmt.Errorf("risk: view lacks version/seq")
			}
			return nil
		}
		return rep, nil
	}
	return rep, fmt.Errorf("risk: %s", resp.Status)
}

func (c *mixClient) stream() error {
	c.mu.Lock()
	cursor := c.cursor
	c.mu.Unlock()
	resp, body, err := c.get("/v1/risk/stream?nowait=1&cursor="+strconv.FormatUint(cursor, 10), nil)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream: %s", resp.Status)
	}
	last := cursor
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "event: resync") {
			last = 0 // the next id restarts from the oldest buffered delta
			continue
		}
		id, ok := strings.CutPrefix(line, "id: ")
		if !ok {
			continue
		}
		n, err := strconv.ParseUint(id, 10, 64)
		if err != nil {
			return fmt.Errorf("stream: bad id %q", id)
		}
		if n <= last {
			return fmt.Errorf("stream: seq %d after %d is not monotone", n, last)
		}
		last = n
	}
	if err := sc.Err(); err != nil {
		return err
	}
	c.mu.Lock()
	if last > c.cursor {
		c.cursor = last
	}
	c.mu.Unlock()
	return nil
}

// ingest posts refreshed copies of ingestBatch catalog templates with a fresh
// epoch past the boot frontier, so every set is new.
func (c *mixClient) ingest(first int) error {
	n := c.ingestSeq.Add(1)
	epoch := c.end.Add(time.Second + time.Duration(n)*50*time.Millisecond)
	sets := make([]*tle.TLE, ingestBatch)
	for i := range sets {
		t := *c.templates[(first+i)%len(c.templates)]
		t.Name = ""
		t.Epoch = epoch
		sets[i] = &t
	}
	var body bytes.Buffer
	if err := tle.Write(&body, sets); err != nil {
		return err
	}
	resp, err := c.hc.Post(c.base+"/ingest?group="+group, "text/plain", &body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("ingest: %s", resp.Status)
	}
	var ack struct {
		Received *int `json:"received"`
		Applied  *int `json:"applied"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return fmt.Errorf("ingest: %v", err)
	}
	if ack.Received == nil || *ack.Received != len(sets) || ack.Applied == nil || *ack.Applied != len(sets) {
		return fmt.Errorf("ingest: ack %+v for %d new sets", ack, len(sets))
	}
	return nil
}

// phaseStats summarises one open-loop phase.
type phaseStats struct {
	rate            float64
	n, failed       int
	p50, p99        time.Duration
	perKindP50      [nKinds]time.Duration
	perKindP99      [nKinds]time.Duration
	lateGrew        bool
	meetsObjectives bool
}

// summarise computes a phase's latency figures and its verdict against the
// daemon's own objectives (obs.DefaultObjectives): every endpoint's p99
// within its objective, at most 1% failed, and no growing generator lag.
func summarise(rate float64, ss []sample) phaseStats {
	st := phaseStats{rate: rate, n: len(ss)}
	var all []float64
	var per [nKinds][]float64
	for _, s := range ss {
		ms := float64(s.latency) / float64(time.Millisecond)
		all = append(all, ms)
		per[s.k] = append(per[s.k], ms)
		if !s.ok {
			st.failed++
		}
	}
	ms := func(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }
	st.p50, st.p99 = ms(median(all)), ms(percentile(all, 99))
	objective := map[string]float64{}
	for _, o := range obs.DefaultObjectives() {
		objective[o.Endpoint] = o.LatencyP99Ms
	}
	st.meetsObjectives = len(ss) > 0 && float64(st.failed) <= 0.01*float64(len(ss))
	for k := kind(0); k < nKinds; k++ {
		p := percentile(per[k], 99)
		st.perKindP50[k], st.perKindP99[k] = ms(median(per[k])), ms(p)
		if p > objective[sloEndpoint[k]] {
			st.meetsObjectives = false
		}
	}
	// Generator lag must not grow: the last third of the phase may not run
	// more than 10 ms later, on average, than the first third.
	third := len(ss) / 3
	if third > 0 {
		var head, tail time.Duration
		for i := 0; i < third; i++ {
			head += ss[i].late
			tail += ss[len(ss)-1-i].late
		}
		if (tail-head)/time.Duration(third) > 10*time.Millisecond {
			st.lateGrew = true
			st.meetsObjectives = false
		}
	}
	return st
}

func (st phaseStats) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%.0f req/s: n=%d failed=%d p50=%.2fms p99=%.2fms slo=%v lateGrew=%v p50/p99 ms [", st.rate, st.n, st.failed,
		float64(st.p50)/1e6, float64(st.p99)/1e6, st.meetsObjectives, st.lateGrew)
	for k := kind(0); k < nKinds; k++ {
		fmt.Fprintf(&b, " %s=%.2f/%.1f", kindNames[k], float64(st.perKindP50[k])/1e6, float64(st.perKindP99[k])/1e6)
	}
	b.WriteString(" ]")
	return b.String()
}
