package constellation

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/obs"
)

// diffResults fails the test unless a and b are identical field for field.
func diffResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if !a.Start.Equal(b.Start) || a.Hours != b.Hours {
		t.Fatalf("%s: header differs: %v/%d vs %v/%d", label, a.Start, a.Hours, b.Start, b.Hours)
	}
	if len(a.Sats) != len(b.Sats) {
		t.Fatalf("%s: sat counts differ: %d vs %d", label, len(a.Sats), len(b.Sats))
	}
	for i := range a.Sats {
		if a.Sats[i] != b.Sats[i] {
			t.Fatalf("%s: sat %d differs:\n  %+v\n  %+v", label, i, a.Sats[i], b.Sats[i])
		}
	}
	if len(a.Samples) != len(b.Samples) {
		t.Fatalf("%s: sample counts differ: %d vs %d", label, len(a.Samples), len(b.Samples))
	}
	for i := range a.Samples {
		if a.Samples[i] != b.Samples[i] {
			t.Fatalf("%s: sample %d differs:\n  %+v\n  %+v", label, i, a.Samples[i], b.Samples[i])
		}
	}
}

// chunkTestConfig exercises every creation path at once: an initial fleet
// spread over multiple shells, launches before/at/after the window start, a
// launch past the window end (never created), out-of-range shell indices,
// zero-means-default staging parameters, scripted events, and a storm to
// drive random safe-mode draws.
func chunkTestConfig(seed int64, hours int) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Start = simStart
	cfg.Hours = hours
	cfg.InitialFleet = 37
	cfg.Launches = []Launch{
		{At: simStart.AddDate(0, 0, -3), Shell: 1, Count: 9},                        // before start: processed at hour 0
		{At: simStart, Shell: 0, Count: 11},                                         // at start
		{At: simStart.Add(30 * time.Minute), Shell: 2, Count: 5},                    // mid-hour: processed at hour 1
		{At: simStart.Add(72 * time.Hour), Shell: 99, Count: 7, StagingAltKm: 320},  // out-of-range shell -> 0
		{At: simStart.Add(200 * time.Hour), Shell: 3, Count: 6, StagingDays: 10},    // short checkout
		{At: simStart.Add(time.Duration(hours+5) * time.Hour), Shell: 0, Count: 50}, // after end: never created
		{At: simStart.Add(time.Duration(hours) * time.Hour), Shell: 0, Count: 8},    // exactly at end: never created
	}
	first := cfg.FirstCatalog
	if first == 0 {
		first = 44713
	}
	cfg.Scripted = []ScriptedEvent{
		{Catalog: first + 2, At: simStart.Add(100 * time.Hour), Action: ScriptSafeMode, DurationDays: 6},
		{Catalog: first + 40, At: simStart.Add(140 * time.Hour), Action: ScriptFail, DragFactor: 1.4},
		{Catalog: first + 50, At: simStart.Add(150 * time.Hour), Action: ScriptDeorbit},
	}
	return cfg
}

// runChunkSize is Run at an explicit chunk size.
func runChunkSize(ctx context.Context, cfg Config, weather *dst.Index, chunkSize int) (*Result, error) {
	plan, err := PlanChunks(cfg, chunkSize)
	if err != nil {
		return nil, err
	}
	return runChunked(ctx, plan, weather)
}

// runSequential is the reference every chunked run is compared against: Run
// at width 1, which simulates the whole fleet as one chunk.
func runSequential(t *testing.T, cfg Config, weather *dst.Index) *Result {
	t.Helper()
	cfg.Parallelism = 1
	res, err := Run(context.Background(), cfg, weather)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunChunkedEquivalence is the core partition-soundness proof: for every
// chunk size, the chunked run reproduces the sequential one exactly, samples
// and ground truth both.
func TestRunChunkedEquivalence(t *testing.T) {
	hours := 24 * 20
	weather := stormIndex(hours, 24*10, -250)
	for _, seed := range []int64{7, 42} {
		cfg := chunkTestConfig(seed, hours)
		want := runSequential(t, cfg, weather)
		for _, chunkSize := range []int{1, 7, 16, 37, 64, 1000} {
			got, err := runChunkSize(context.Background(), cfg, weather, chunkSize)
			if err != nil {
				t.Fatalf("seed %d chunk %d: %v", seed, chunkSize, err)
			}
			diffResults(t, "chunked", want, got)
		}
	}
}

// TestRunChunkedWidthInvariance proves the worker width cannot reach the
// merged output.
func TestRunChunkedWidthInvariance(t *testing.T) {
	hours := 24 * 10
	weather := quietIndex(hours)
	cfg := chunkTestConfig(42, hours)
	var want *Result
	for _, workers := range []int{1, 4, 8} {
		cfg.Parallelism = workers
		got, err := runChunkSize(context.Background(), cfg, weather, 16)
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if want == nil {
			want = got
			continue
		}
		diffResults(t, "width", want, got)
	}
}

// TestRunChunkedResearchFleet covers the launch-cadence preset (no initial
// fleet, launches spread over the whole window).
func TestRunChunkedResearchFleet(t *testing.T) {
	start := simStart
	end := simStart.AddDate(0, 4, 0)
	cfg := ResearchFleet(3, start, end, 19)
	weather := stormIndex(cfg.Hours, cfg.Hours/2, -300)
	want := runSequential(t, cfg, weather)
	for _, chunkSize := range []int{13, 50} {
		got, err := runChunkSize(context.Background(), cfg, weather, chunkSize)
		if err != nil {
			t.Fatalf("chunk %d: %v", chunkSize, err)
		}
		diffResults(t, "research", want, got)
	}
}

// TestPlanChunksRoster checks the plan's accounting: catalog contiguity,
// bounds arithmetic, and exclusion of never-processed launches.
func TestPlanChunksRoster(t *testing.T) {
	cfg := chunkTestConfig(1, 24*20)
	plan, err := PlanChunks(cfg, 16)
	if err != nil {
		t.Fatal(err)
	}
	// 37 initial + 9 + 11 + 5 + 7 + 6 launched; the two launches at/after the
	// window end never run.
	if want := 37 + 9 + 11 + 5 + 7 + 6; plan.TotalSats() != want {
		t.Fatalf("TotalSats = %d, want %d", plan.TotalSats(), want)
	}
	if got := plan.NumChunks(); got != (plan.TotalSats()+15)/16 {
		t.Fatalf("NumChunks = %d", got)
	}
	covered := 0
	for i := 0; i < plan.NumChunks(); i++ {
		lo, hi := plan.ChunkBounds(i)
		if lo != covered || hi <= lo || hi > plan.TotalSats() {
			t.Fatalf("chunk %d bounds [%d, %d) break coverage at %d", i, lo, hi, covered)
		}
		covered = hi
	}
	if covered != plan.TotalSats() {
		t.Fatalf("chunks cover %d of %d", covered, plan.TotalSats())
	}
	if !plan.Start().Equal(simStart) {
		t.Fatalf("Start = %v", plan.Start())
	}
}

// TestPlanChunksValidation covers the error paths.
func TestPlanChunksValidation(t *testing.T) {
	if _, err := PlanChunks(chunkTestConfig(1, 24), 0); err == nil {
		t.Error("chunk size 0 accepted")
	}
	bad := chunkTestConfig(1, 24)
	bad.Hours = 0
	if _, err := PlanChunks(bad, 16); err == nil {
		t.Error("Hours=0 accepted")
	}
	if _, err := Run(context.Background(), bad, quietIndex(24)); err == nil {
		t.Error("Run accepted invalid config")
	}
	plan, err := PlanChunks(chunkTestConfig(1, 24), 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunChunk(context.Background(), -1, quietIndex(24)); err == nil {
		t.Error("negative chunk accepted")
	}
	if _, err := plan.RunChunk(context.Background(), plan.NumChunks(), quietIndex(24)); err == nil {
		t.Error("out-of-range chunk accepted")
	}
}

// TestRunChunkedCancel proves cancelling mid-run returns the context error
// and leaks no goroutines.
func TestRunChunkedCancel(t *testing.T) {
	before := runtime.NumGoroutine()
	cfg := chunkTestConfig(1, 24*30)
	cfg.Parallelism = 4
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := runChunkSize(ctx, cfg, quietIndex(cfg.Hours), 8)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, n)
	}
}

// TestMegaFleetPreset sanity-checks the multi-constellation preset: all four
// constellations populated and the chunked run equivalent to the direct one.
func TestMegaFleetPreset(t *testing.T) {
	cfg := MegaFleet(7, 600, simStart, 4)
	if got, want := len(cfg.Shells), len(StarlinkShells())+len(StarlinkGen2Shells())+len(KuiperShells())+len(OneWebShells()); got != want {
		t.Fatalf("MegaShells: %d shells, want %d", got, want)
	}
	weather := stormIndex(cfg.Hours, cfg.Hours/2, -350)
	want := runSequential(t, cfg, weather)
	perShell := make(map[int]int)
	for _, s := range want.Sats {
		perShell[s.Shell]++
	}
	for i := range cfg.Shells {
		if perShell[i] == 0 {
			t.Errorf("shell %d (%s) unpopulated", i, cfg.Shells[i].Name)
		}
	}
	got, err := runChunkSize(context.Background(), cfg, weather, 128)
	if err != nil {
		t.Fatal(err)
	}
	diffResults(t, "mega", want, got)
}

// TestRunFanOutGranularity pins Run's execution strategy: one parallel
// batch per run (a stream of satellite chunks), however many hours it
// simulates — never one fan-out per simulated hour.
func TestRunFanOutGranularity(t *testing.T) {
	if !obs.Default().Enabled() {
		t.Skip("default metrics registry disabled")
	}
	batches := obs.Default().Counter("parallel_batches_total")
	for _, days := range []int{3, 5} {
		cfg := chunkTestConfig(42, 24*days)
		cfg.Parallelism = 4
		before := batches.Value()
		if _, err := Run(context.Background(), cfg, quietIndex(cfg.Hours)); err != nil {
			t.Fatal(err)
		}
		if got := batches.Value() - before; got != 1 {
			t.Errorf("%d hours: parallel_batches_total moved by %d, want 1", cfg.Hours, got)
		}
	}
}

// TestAutoChunkSize pins the computed partition: the whole fleet as one
// chunk at width 1, several chunks per worker above it.
func TestAutoChunkSize(t *testing.T) {
	for _, c := range []struct{ total, workers, want int }{
		{0, 1, 1}, {1, 1, 1}, {2000, 1, 2000},
		{0, 4, 1}, {5, 4, 1}, {2000, 2, 125}, {2001, 2, 126},
	} {
		if got := autoChunkSize(c.total, c.workers); got != c.want {
			t.Errorf("autoChunkSize(%d, %d) = %d, want %d", c.total, c.workers, got, c.want)
		}
	}
}
