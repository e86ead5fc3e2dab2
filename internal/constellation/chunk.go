package constellation

import (
	"context"
	"fmt"
	"slices"
	"time"

	"cosmicdance/internal/dst"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/units"
)

// Chunked execution is the simulator's one execution strategy: the fleet is
// sliced into fixed-size satellite chunks and each chunk is simulated
// independently. The partition is sound because every satellite draws from
// its own splitmix64 child stream keyed by catalog number, stepSat touches
// only its own satellite, and the archive's sample order within an hour is
// creation order — so a chunk, which owns a contiguous catalog range, can be
// simulated alone and its hourly emissions spliced back in chunk order to
// give the same archive at every chunk size. Run merges the chunks into one
// Result; the streaming dataset build in internal/artifact consumes chunks
// one at a time without ever merging the archives, so a 100k-satellite run
// never has to hold the whole fleet (or its archive) in memory at once.

// rosterEntry pins down one satellite's creation: which helper creates it,
// at which processing hour, and with which resolved batch parameters. The
// roster is the run's creation schedule flattened to per-satellite rows in
// catalog order, which is what makes an arbitrary contiguous slice of it
// independently simulable.
type rosterEntry struct {
	initial     bool
	initialIdx  int     // global initial-fleet ordinal (fixes the shell)
	shellIdx    int     // resolved launch shell (launched sats only)
	launchHour  int     // processing hour; -1 for initial-fleet sats
	stagingAlt  float64 // resolved staging altitude (launched sats only)
	stagingDays float64
}

// ChunkPlan is a fleet's creation schedule partitioned into fixed-size
// chunks. Plans are immutable after construction; RunChunk may be called
// for different chunks concurrently.
type ChunkPlan struct {
	cfg       Config
	start     time.Time
	roster    []rosterEntry
	scripts   map[int][]ScriptedEvent
	chunkSize int
	firstCat  int
}

// PlanChunks validates cfg and flattens its launch schedule into a
// chunk-partitioned roster. chunkSize is the number of satellites per chunk
// (the last chunk may be short).
func PlanChunks(cfg Config, chunkSize int) (*ChunkPlan, error) {
	if err := validateConfig(cfg); err != nil {
		return nil, err
	}
	if chunkSize <= 0 {
		return nil, fmt.Errorf("constellation: chunk size must be positive, got %d", chunkSize)
	}
	start := cfg.Start.UTC().Truncate(time.Hour)

	launches := append([]Launch(nil), cfg.Launches...)
	slices.SortStableFunc(launches, func(a, b Launch) int { return a.At.Compare(b.At) })

	scripts := make(map[int][]ScriptedEvent)
	for _, ev := range cfg.Scripted {
		scripts[ev.Catalog] = append(scripts[ev.Catalog], ev)
	}
	for _, evs := range scripts {
		slices.SortStableFunc(evs, func(a, b ScriptedEvent) int { return a.At.Compare(b.At) })
	}

	//cosmiclint:allow fleetalloc the roster is O(fleet) by design: one small value entry per satellite, built once per plan and shared by every chunk
	roster := make([]rosterEntry, 0, cfg.InitialFleet)
	for i := 0; i < cfg.InitialFleet; i++ {
		roster = append(roster, rosterEntry{initial: true, initialIdx: i, launchHour: -1})
	}
	for _, l := range launches {
		h := launchHourFor(start, l.At)
		if h >= cfg.Hours {
			// The hourly loop never reaches this launch: it creates no
			// satellites and consumes no catalog numbers. Launches are sorted
			// by At, so every later launch is excluded too — exclusions form
			// a suffix and catalog numbers stay contiguous.
			break
		}
		shellIdx, stagingAlt, stagingDays := resolveLaunch(&cfg, l)
		for i := 0; i < l.Count; i++ {
			roster = append(roster, rosterEntry{
				shellIdx: shellIdx, launchHour: h,
				stagingAlt: stagingAlt, stagingDays: stagingDays,
			})
		}
	}

	firstCat := cfg.FirstCatalog
	if firstCat == 0 {
		firstCat = 44713
	}
	return &ChunkPlan{
		cfg: cfg, start: start, roster: roster,
		scripts: scripts, chunkSize: chunkSize, firstCat: firstCat,
	}, nil
}

// launchHourFor returns the hourly step at which a launch scheduled at `at`
// is processed: the smallest h ≥ 0 with start+h·hour ≥ at (launches are
// handled at the top of each hourly step, before the physics).
func launchHourFor(start, at time.Time) int {
	if !at.After(start) {
		return 0
	}
	d := at.Sub(start)
	h := int(d / time.Hour)
	if start.Add(time.Duration(h) * time.Hour).Before(at) {
		h++
	}
	return h
}

// TotalSats returns the number of satellites the run will ever create.
func (p *ChunkPlan) TotalSats() int { return len(p.roster) }

// NumChunks returns the number of chunks the roster partitions into.
func (p *ChunkPlan) NumChunks() int {
	return (len(p.roster) + p.chunkSize - 1) / p.chunkSize
}

// ChunkBounds returns the half-open roster range [lo, hi) chunk i covers.
func (p *ChunkPlan) ChunkBounds(i int) (lo, hi int) {
	lo = i * p.chunkSize
	hi = lo + p.chunkSize
	if hi > len(p.roster) {
		hi = len(p.roster)
	}
	return lo, hi
}

// Start returns the run's hour-truncated UTC start time.
func (p *ChunkPlan) Start() time.Time { return p.start }

// RunChunk simulates chunk i alone and returns its slice of the archive:
// the satellites with catalogs [firstCat+lo, firstCat+hi) and exactly the
// samples they would emit in the full run, in the full run's relative order.
// Safe to call concurrently for distinct chunks.
func (p *ChunkPlan) RunChunk(ctx context.Context, chunk int, weather *dst.Index) (*Result, error) {
	if chunk < 0 || chunk >= p.NumChunks() {
		return nil, fmt.Errorf("constellation: chunk %d out of range [0, %d)", chunk, p.NumChunks())
	}
	lo, hi := p.ChunkBounds(chunk)
	st := &simState{
		cfg:         p.cfg,
		start:       p.start,
		scripts:     p.scripts,
		nextCatalog: p.firstCat + lo,
		result:      &Result{Start: p.start, Hours: p.cfg.Hours},
	}

	// Initial-fleet entries precede all launched entries in roster order, so
	// the catalog counter stays aligned with the global sequence.
	cursor := lo
	for cursor < hi && p.roster[cursor].initial {
		st.seedInitialSat(p.roster[cursor].initialIdx)
		cursor++
	}
	for h := 0; h < p.cfg.Hours; h++ {
		now := p.start.Add(time.Duration(h) * time.Hour)
		d := units.NanoTesla(-10) // quiet default outside the index
		if v, ok := weather.At(now); ok {
			d = v
		}
		for cursor < hi && p.roster[cursor].launchHour == h {
			e := p.roster[cursor]
			st.launchSat(e.shellIdx, e.stagingAlt, e.stagingDays, now)
			cursor++
		}
		if err := st.step(ctx, now, d); err != nil {
			return nil, fmt.Errorf("constellation: chunk %d step at %s: %w", chunk, now.Format(time.RFC3339), err)
		}
	}
	st.finalize()
	metricSimSats.Add(int64(len(st.result.Sats)))
	metricSimSamples.Add(int64(len(st.result.Samples)))
	return st.result, nil
}

// chunksPerWorker is how many chunks Run cuts per worker above width 1:
// enough that uneven chunks (launch cohorts, early re-entries) even out
// across workers, few enough that the per-chunk overhead stays negligible.
const chunksPerWorker = 8

// autoChunkSize is the chunk size Run uses for a fleet of total satellites
// at the given worker width: the whole fleet as one chunk at width 1, about
// chunksPerWorker chunks per worker above it.
func autoChunkSize(total, workers int) int {
	if workers > 1 {
		total = (total + workers*chunksPerWorker - 1) / (workers * chunksPerWorker)
	}
	return max(total, 1)
}

// runChunked simulates every chunk of plan across its Parallelism workers
// and merges the per-chunk archives back into one Result. The output is the
// same at every (chunk size, Parallelism) combination — the contract the
// chunked streaming pipeline rests on, enforced by the test matrix in
// chunk_test.go.
func runChunked(ctx context.Context, plan *ChunkPlan, weather *dst.Index) (*Result, error) {
	n := plan.NumChunks()
	results := make([]*Result, 0, n)
	err := parallel.Stream(ctx, plan.cfg.Parallelism, n,
		func(i int) (*Result, error) { return plan.RunChunk(ctx, i, weather) },
		func(i int, r *Result) error { results = append(results, r); return nil })
	if err != nil {
		return nil, err
	}
	metricSimRuns.Inc()
	return plan.merge(results), nil
}

// merge splices per-chunk archives back into the whole-fleet layout. Within
// an hour samples are in creation (catalog) order; each chunk owns a
// contiguous catalog range, so walking the hours and draining each chunk's
// samples for that hour in chunk order reproduces the global order exactly.
// A single chunk already is the whole archive.
func (p *ChunkPlan) merge(results []*Result) *Result {
	if len(results) == 1 {
		return results[0]
	}
	out := &Result{Start: p.start, Hours: p.cfg.Hours}
	nSats, nSamples := 0, 0
	for _, r := range results {
		nSats += len(r.Sats)
		nSamples += len(r.Samples)
	}
	//cosmiclint:allow fleetalloc merge materializes the whole-fleet Result by contract (Run's output); the streaming pipeline bypasses merge entirely
	out.Sats = make([]SatInfo, 0, nSats)
	if nSamples > 0 {
		out.Samples = make([]Sample, 0, nSamples)
	}
	ptr := make([]int, len(results))
	for h := 0; h < p.cfg.Hours; h++ {
		epoch := p.start.Add(time.Duration(h) * time.Hour).Unix()
		for c, r := range results {
			for ptr[c] < len(r.Samples) && r.Samples[ptr[c]].Epoch == epoch {
				out.Samples = append(out.Samples, r.Samples[ptr[c]])
				ptr[c]++
			}
		}
	}
	for _, r := range results {
		out.Sats = append(out.Sats, r.Sats...)
	}
	return out
}
