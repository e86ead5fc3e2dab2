package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds a process's metrics. Registration (Counter, Gauge,
// Histogram) takes a mutex and may allocate; increments and observations on
// the returned handles are lock-free and allocation-free, so instrumented
// hot paths pay one atomic load (the enabled flag) plus one atomic
// read-modify-write per event.
type Registry struct {
	enabled atomic.Bool

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty, enabled registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled turns the registry's metrics on or off. While off, increments
// and observations are dropped at the cost of a single atomic load, which is
// what the telemetry-overhead gate measures against.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// metricID renders the canonical identity of a metric: its name plus the
// label pairs sorted by key, in the Prometheus series form
// name{k1="v1",k2="v2"}. Registration panics on malformed labels because
// every call site is a package-level var initialization — a bad metric
// definition should fail the first test that imports the package, not
// corrupt the exposition at runtime.
func metricID(name string, labels []string) (id, labelstr string) {
	if name == "" {
		panic("obs: empty metric name")
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: metric %q has an odd label list (want key/value pairs)", name))
	}
	if len(labels) == 0 {
		return name, ""
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i < len(labels); i += 2 {
		if labels[i] == "" {
			panic(fmt.Sprintf("obs: metric %q has an empty label key", name))
		}
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	for i := 1; i < len(pairs); i++ {
		if pairs[i].k == pairs[i-1].k {
			panic(fmt.Sprintf("obs: metric %q repeats label key %q (duplicate keys are illegal in the exposition)", name, pairs[i].k))
		}
	}
	var b strings.Builder
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(p.v))
		b.WriteByte('"')
	}
	labelstr = b.String()
	return name + "{" + labelstr + "}", labelstr
}

// escapeLabelValue escapes a label value per the Prometheus text-exposition
// grammar: exactly backslash, double-quote, and newline get a backslash;
// every other byte passes through verbatim. (strconv.Quote is close but
// over-escapes — a tab would render as \t, which a conformant parser reads
// as a literal 't'.)
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	b.Grow(len(v) + 2)
	for i := 0; i < len(v); i++ {
		switch v[i] {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(v[i])
		}
	}
	return b.String()
}

// Counter is a monotonically increasing metric. Handles are shared: two
// registrations of the same (name, labels) return the same Counter.
type Counter struct {
	name   string // base name, no labels
	labels string // rendered k="v",... or ""
	on     *atomic.Bool
	v      atomic.Int64
}

// Counter returns (registering if needed) the counter for name and the
// optional key/value label pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	id, labelstr := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[id]; ok {
		return c
	}
	c := &Counter{name: name, labels: labelstr, on: &r.enabled}
	r.counters[id] = c
	return c
}

// Add increments the counter by n (negative n is ignored: counters are
// monotone).
func (c *Counter) Add(n int64) {
	if n > 0 && c.on.Load() {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as a float64.
type Gauge struct {
	name   string
	labels string
	on     *atomic.Bool
	bits   atomic.Uint64
}

// Gauge returns (registering if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	id, labelstr := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[id]; ok {
		return g
	}
	g := &Gauge{name: name, labels: labelstr, on: &r.enabled}
	r.gauges[id] = g
	return g
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g.on.Load() {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta (atomically, CAS loop).
func (g *Gauge) Add(delta float64) {
	if !g.on.Load() {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge reading.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket-layout distribution: observations land in the
// first bucket whose upper bound is >= the value, with an implicit +Inf
// bucket at the end. The layout is fixed at registration so snapshots and
// expositions are stable across runs.
type Histogram struct {
	name      string
	labels    string
	on        *atomic.Bool
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	count     atomic.Int64
	sum       atomic.Uint64   // float64 bits, CAS-add
	exemplars []atomic.Uint64 // per-bucket TraceID bits, last-writer-wins
}

// Histogram returns (registering if needed) the histogram for name and
// labels with the given ascending bucket upper bounds. Re-registering the
// same metric with a different layout panics: a histogram's buckets are part
// of its contract.
func (r *Registry) Histogram(name string, bounds []float64, labels ...string) *Histogram {
	id, labelstr := metricID(name, labels)
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram %q bounds not strictly ascending", name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[id]; ok {
		if len(h.bounds) != len(bounds) {
			panic(fmt.Sprintf("obs: histogram %q re-registered with a different bucket layout", name))
		}
		for i := range bounds {
			if h.bounds[i] != bounds[i] {
				panic(fmt.Sprintf("obs: histogram %q re-registered with a different bucket layout", name))
			}
		}
		return h
	}
	h := &Histogram{
		name:      name,
		labels:    labelstr,
		on:        &r.enabled,
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]atomic.Int64, len(bounds)+1),
		exemplars: make([]atomic.Uint64, len(bounds)+1),
	}
	r.histograms[id] = h
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h.on.Load() {
		h.observe(v)
	}
}

// observe records v unconditionally and returns the bucket it landed in.
func (h *Histogram) observe(v float64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return i
		}
	}
}

// ObserveExemplar records v like Observe and additionally pins trace as the
// exemplar of the bucket v lands in (last writer wins, one atomic store).
// Exemplars surface in the JSON snapshot only: the text exposition is format
// 0.0.4, which predates exemplar syntax, so /metrics stays grammar-clean.
func (h *Histogram) ObserveExemplar(v float64, trace TraceID) {
	if !h.on.Load() {
		return
	}
	i := h.observe(v)
	if trace != 0 {
		h.exemplars[i].Store(uint64(trace))
	}
}

// Count returns how many observations the histogram holds.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// CounterValue is one counter in a snapshot.
type CounterValue struct {
	Name   string `json:"name"`
	Labels string `json:"labels,omitempty"`
	Value  int64  `json:"value"`
}

// GaugeValue is one gauge in a snapshot.
type GaugeValue struct {
	Name   string  `json:"name"`
	Labels string  `json:"labels,omitempty"`
	Value  float64 `json:"value"`
}

// HistogramValue is one histogram in a snapshot. Counts has one entry per
// bound plus a final +Inf bucket; entries are per-bucket (not cumulative).
// Exemplars, when present, holds one trace ID (16-hex form) per bucket, ""
// for buckets without one; the field is omitted entirely when no bucket has
// an exemplar, so histograms observed without ObserveExemplar render as
// before.
type HistogramValue struct {
	Name      string    `json:"name"`
	Labels    string    `json:"labels,omitempty"`
	Count     int64     `json:"count"`
	Sum       float64   `json:"sum"`
	Bounds    []float64 `json:"bounds"`
	Counts    []int64   `json:"counts"`
	Exemplars []string  `json:"exemplars,omitempty"`
}

// Snapshot is a point-in-time copy of a registry, sorted by (name, labels)
// so repeated snapshots of the same state render byte-identically.
type Snapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges"`
	Histograms []HistogramValue `json:"histograms"`
}

// Snapshot copies the registry's current state. Values are read atomically
// per metric; the snapshot is not a cross-metric atomic cut, which is fine
// for diagnostics.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		Counters:   make([]CounterValue, 0, len(r.counters)),
		Gauges:     make([]GaugeValue, 0, len(r.gauges)),
		Histograms: make([]HistogramValue, 0, len(r.histograms)),
	}
	cids := sortedKeys(r.counters)
	for _, id := range cids {
		c := r.counters[id]
		s.Counters = append(s.Counters, CounterValue{Name: c.name, Labels: c.labels, Value: c.Value()})
	}
	gids := sortedKeys(r.gauges)
	for _, id := range gids {
		g := r.gauges[id]
		s.Gauges = append(s.Gauges, GaugeValue{Name: g.name, Labels: g.labels, Value: g.Value()})
	}
	hids := sortedKeys(r.histograms)
	for _, id := range hids {
		h := r.histograms[id]
		hv := HistogramValue{
			Name:   h.name,
			Labels: h.labels,
			Count:  h.Count(),
			Sum:    h.Sum(),
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
		}
		for i := range h.counts {
			hv.Counts[i] = h.counts[i].Load()
		}
		for i := range h.exemplars {
			if x := h.exemplars[i].Load(); x != 0 {
				if hv.Exemplars == nil {
					hv.Exemplars = make([]string, len(h.exemplars))
				}
				hv.Exemplars[i] = TraceID(x).String()
			}
		}
		s.Histograms = append(s.Histograms, hv)
	}
	return s
}

// sortedKeys returns m's keys in ascending order, so snapshot assembly never
// depends on map iteration order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
