package obs_test

import (
	"context"
	"math"
	"testing"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/parallel"
)

func TestCounterBasics(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("events_total")
	c.Inc()
	c.Add(4)
	c.Add(-3) // monotone: negative adds are dropped
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("events_total"); again != c {
		t.Fatal("re-registration returned a different handle")
	}
}

func TestCounterLabelsIdentity(t *testing.T) {
	r := obs.NewRegistry()
	a := r.Counter("hits_total", "kind", "weather", "tier", "disk")
	b := r.Counter("hits_total", "tier", "disk", "kind", "weather") // sorted identity
	if a != b {
		t.Fatal("label order changed the metric identity")
	}
	other := r.Counter("hits_total", "kind", "dataset", "tier", "disk")
	if other == a {
		t.Fatal("different label values shared a handle")
	}
}

func TestGauge(t *testing.T) {
	r := obs.NewRegistry()
	g := r.Gauge("depth")
	g.Set(2.5)
	g.Add(1.25)
	g.Add(-0.75)
	if got := g.Value(); got != 3.0 {
		t.Fatalf("gauge = %v, want 3.0", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := obs.NewRegistry()
	h := r.Histogram("sizes", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 10, 50, 1000} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got, want := h.Sum(), 0.5+1+5+10+50+1000; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if len(snap.Histograms) != 1 {
		t.Fatalf("snapshot has %d histograms, want 1", len(snap.Histograms))
	}
	hv := snap.Histograms[0]
	// <=1: {0.5, 1}; <=10: {5, 10}; <=100: {50}; +Inf: {1000}
	want := []int64{2, 2, 1, 1}
	for i, n := range want {
		if hv.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (%v)", i, hv.Counts[i], n, hv.Counts)
		}
	}
}

func TestHistogramRelayoutPanics(t *testing.T) {
	r := obs.NewRegistry()
	r.Histogram("sizes", []float64{1, 2})
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with different buckets did not panic")
		}
	}()
	r.Histogram("sizes", []float64{1, 3})
}

func TestBadRegistrationPanics(t *testing.T) {
	r := obs.NewRegistry()
	for name, fn := range map[string]func(){
		"empty name":      func() { r.Counter("") },
		"odd labels":      func() { r.Counter("x", "k") },
		"empty label key": func() { r.Counter("x", "", "v") },
		"bad bounds":      func() { r.Histogram("h", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestDisabledRegistryDropsWrites(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1})
	r.SetEnabled(false)
	if r.Enabled() {
		t.Fatal("registry still enabled")
	}
	c.Inc()
	g.Set(7)
	g.Add(1)
	h.Observe(3)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatalf("disabled registry recorded: c=%d g=%v h=%d", c.Value(), g.Value(), h.Count())
	}
	r.SetEnabled(true)
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("re-enabled registry did not record")
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("zeta_total").Inc()
	r.Counter("alpha_total").Add(2)
	r.Counter("alpha_total", "kind", "b").Add(3)
	r.Counter("alpha_total", "kind", "a").Add(4)
	snap := r.Snapshot()
	var order []string
	for _, c := range snap.Counters {
		order = append(order, c.Name+"|"+c.Labels)
	}
	want := []string{`alpha_total|`, `alpha_total|kind="a"`, `alpha_total|kind="b"`, `zeta_total|`}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("snapshot order %v, want %v", order, want)
		}
	}
}

// TestConcurrentIncrements drives counters, gauges, and histograms from
// internal/parallel workers — the exact shape pipeline instrumentation has —
// and must pass under -race with exact final values.
func TestConcurrentIncrements(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("work_total")
	g := r.Gauge("level")
	h := r.Histogram("size", []float64{256, 512, 1024})
	const n = 4096
	err := parallel.ForEach(context.Background(), 8, n, func(i int) error {
		c.Inc()
		g.Add(1)
		h.Observe(float64(i % 2048))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != n {
		t.Fatalf("counter = %d, want %d", got, n)
	}
	if got := g.Value(); got != n {
		t.Fatalf("gauge = %v, want %d", got, n)
	}
	if got := h.Count(); got != n {
		t.Fatalf("histogram count = %d, want %d", got, n)
	}
	var wantSum float64
	for i := 0; i < n; i++ {
		wantSum += float64(i % 2048)
	}
	if got := h.Sum(); math.Abs(got-wantSum) > 1e-6 {
		t.Fatalf("histogram sum = %v, want %v", got, wantSum)
	}
	snap := r.Snapshot()
	var bucketTotal int64
	for _, b := range snap.Histograms[0].Counts {
		bucketTotal += b
	}
	if bucketTotal != n {
		t.Fatalf("bucket counts sum to %d, want %d", bucketTotal, n)
	}
}

func TestDefaultRegistryIsShared(t *testing.T) {
	if obs.Default() == nil {
		t.Fatal("no default registry")
	}
	a := obs.Default().Counter("obs_test_shared_total")
	b := obs.Default().Counter("obs_test_shared_total")
	if a != b {
		t.Fatal("default registry returned distinct handles")
	}
}
