package spacetrack

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cosmicdance/internal/obs"
	"cosmicdance/internal/tle"
)

// Catalog telemetry: ingest batches, element sets applied, and duplicates
// skipped, so a live-ingest run shows its write path next to the server's
// read counters.
var (
	metricCatalogIngests = obs.Default().Counter("spacetrack_catalog_ingests_total")
	metricCatalogApplied = obs.Default().Counter("spacetrack_catalog_sets_applied_total")
	metricCatalogDupes   = obs.Default().Counter("spacetrack_catalog_sets_duplicate_total")
)

// catalogShards is the number of copy-on-write shards a Catalog spreads its
// delta over. Sixteen keeps the per-swap clone small (one sixteenth of the
// live objects) while staying far below the point where the group index
// becomes the bottleneck.
const catalogShards = 16

// VersionedArchive is an Archive that can report a group's current version,
// last-modified instant and horizon: the inputs of the server's
// conditional-fetch validators (ETag / Last-Modified) and of its rendered
// body cache. Archives without versions get served with clock-derived
// validators and no cache instead.
type VersionedArchive interface {
	Archive
	// GroupVersion returns the group's monotonically increasing version,
	// the service-clock instant of its last mutation, and its horizon: the
	// newest epoch the group can still reveal, so GroupLatest(group, at) is
	// the same for every at >= horizon until the version changes. ok is
	// false for unknown groups.
	GroupVersion(group string) (version uint64, lastMod, horizon time.Time, ok bool)
}

// StreamingArchive is an Archive that can yield a history window one element
// set at a time, so bulk responses stream instead of materializing.
type StreamingArchive interface {
	Archive
	// HistoryEach calls yield for each element set of catalog with epoch in
	// [from, to], ascending. A yield error aborts the walk and is returned.
	HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error
}

// Catalog is the daemon's serving-grade data plane: an immutable base
// archive (typically the simulation result the daemon booted from) overlaid
// with live-ingested element sets held in copy-on-write shards indexed by
// (catalog, epoch).
//
// Reads never block ingest and ingest never blocks reads: readers load one
// atomic pointer and walk immutable state, while the single writer clones
// only the touched shards' indexes and the group index, merges, and swaps
// the pointer. A reader that raced the swap simply serves the previous,
// fully-consistent state: the shards and the group versions a reader sees
// always come from the same ingest.
type Catalog struct {
	base  Archive
	state atomic.Pointer[catalogState]

	// mu serializes writers (Ingest); readers take no locks.
	mu sync.Mutex
}

// catalogState is one immutable snapshot of the delta: the shards plus the
// group index over them.
type catalogState struct {
	shards [catalogShards]*shardState
	groups map[string]*groupMeta
	names  []string // sorted; every indexed group
}

// shardState is one shard's immutable delta index. series maps catalog
// number to that object's ingested element sets, ascending by epoch and
// deduplicated by (catalog, epoch).
type shardState struct {
	series map[int][]*tle.TLE
}

// groupMeta is one group's delta membership and conditional-fetch state.
type groupMeta struct {
	cats    []int // sorted delta catalogs
	version uint64
	lastMod time.Time
	horizon time.Time // newest epoch the group can reveal
}

// NewCatalog overlays copy-on-write shards on base. baseMod stamps the base
// archive's last-modified instant and frontier: base must hold no epoch
// after it (use the end of the simulation window). Every group starts at
// version 1.
func NewCatalog(base Archive, baseMod time.Time) *Catalog {
	c := &Catalog{base: base}
	st := &catalogState{groups: map[string]*groupMeta{}}
	for i := range st.shards {
		st.shards[i] = &shardState{series: map[int][]*tle.TLE{}}
	}
	for _, g := range base.Groups() {
		st.groups[g] = &groupMeta{version: 1, lastMod: baseMod, horizon: baseMod}
	}
	st.names = sortedKeys(st.groups)
	c.state.Store(st)
	return c
}

// series returns catalog's ingested element sets in st.
func (st *catalogState) series(catalog int) []*tle.TLE {
	return st.shards[uint(catalog)%catalogShards].series[catalog]
}

// Groups implements Archive: the base groups plus any groups created by
// ingest, sorted and distinct.
func (c *Catalog) Groups() []string {
	return append([]string(nil), c.state.Load().names...)
}

// GroupVersion implements VersionedArchive.
func (c *Catalog) GroupVersion(group string) (uint64, time.Time, time.Time, bool) {
	m, ok := c.state.Load().groups[group]
	if !ok {
		return 0, time.Time{}, time.Time{}, false
	}
	return m.version, m.lastMod, m.horizon, true
}

// latestDelta returns the newest ingested element set of catalog with epoch
// not after at, or nil.
func (st *catalogState) latestDelta(catalog int, at time.Time) *tle.TLE {
	sets := st.series(catalog)
	i := sort.Search(len(sets), func(i int) bool { return sets[i].Epoch.After(at) })
	if i == 0 {
		return nil
	}
	return sets[i-1]
}

// GroupLatest implements Archive: the base's latest sets merged with the
// delta's, the newer epoch winning per catalog, ordered by catalog number.
func (c *Catalog) GroupLatest(group string, at time.Time) []*tle.TLE {
	base := c.base.GroupLatest(group, at)
	st := c.state.Load()
	m := st.groups[group]
	if m == nil || len(m.cats) == 0 {
		return base
	}
	// Base archives serve catalog-ordered sets (ResultArchive does); sort
	// defensively so the merge below never depends on that.
	if !sort.SliceIsSorted(base, func(i, j int) bool { return base[i].CatalogNumber < base[j].CatalogNumber }) {
		base = append([]*tle.TLE(nil), base...)
		sort.Slice(base, func(i, j int) bool { return base[i].CatalogNumber < base[j].CatalogNumber })
	}
	out := make([]*tle.TLE, 0, len(base)+len(m.cats))
	bi := 0
	for _, cat := range m.cats {
		for bi < len(base) && base[bi].CatalogNumber < cat {
			out = append(out, base[bi])
			bi++
		}
		d := st.latestDelta(cat, at)
		if bi < len(base) && base[bi].CatalogNumber == cat {
			// Present in both tiers: the newer epoch wins, the delta on ties
			// (an ingested set supersedes the boot archive's).
			if d != nil && !d.Epoch.Before(base[bi].Epoch) {
				out = append(out, d)
			} else {
				out = append(out, base[bi])
			}
			bi++
			continue
		}
		if d != nil {
			out = append(out, d)
		}
	}
	out = append(out, base[bi:]...)
	return out
}

// History implements Archive: base and delta windows merged ascending by
// epoch, deduplicated by epoch with the delta winning.
func (c *Catalog) History(catalog int, from, to time.Time) []*tle.TLE {
	var out []*tle.TLE
	// The walk over immutable state cannot fail; yield never errors.
	_ = c.HistoryEach(catalog, from, to, func(t *tle.TLE) error {
		out = append(out, t)
		return nil
	})
	return out
}

// HistoryEach implements StreamingArchive: a two-pointer merge of the base
// window and the delta window, yielding without materializing the union.
func (c *Catalog) HistoryEach(catalog int, from, to time.Time, yield func(*tle.TLE) error) error {
	base := c.base.History(catalog, from, to)
	all := c.state.Load().series(catalog)
	lo := sort.Search(len(all), func(i int) bool { return !all[i].Epoch.Before(from) })
	hi := sort.Search(len(all), func(i int) bool { return all[i].Epoch.After(to) })
	delta := all[lo:hi]
	bi, di := 0, 0
	for bi < len(base) || di < len(delta) {
		switch {
		case bi == len(base):
			if err := yield(delta[di]); err != nil {
				return err
			}
			di++
		case di == len(delta):
			if err := yield(base[bi]); err != nil {
				return err
			}
			bi++
		case base[bi].Epoch.Before(delta[di].Epoch):
			if err := yield(base[bi]); err != nil {
				return err
			}
			bi++
		case delta[di].Epoch.Before(base[bi].Epoch):
			if err := yield(delta[di]); err != nil {
				return err
			}
			di++
		default:
			// Same epoch in both tiers: the ingested set supersedes.
			if err := yield(delta[di]); err != nil {
				return err
			}
			bi++
			di++
		}
	}
	return nil
}

// Ingest merges sets into group's delta at service time at, returning how
// many (catalog, epoch) pairs were new. Duplicates of already-held pairs are
// skipped, so replaying an ingest batch is idempotent. Versions bump (and
// lastMod advances) only when at least one set applied, keeping
// conditional-fetch validators honest: group's, and that of every other
// group whose delta already holds an applied catalog, since its latest
// sets change too. Each bumped group's horizon rises to the newest applied
// epoch.
func (c *Catalog) Ingest(group string, sets []*tle.TLE, at time.Time) int {
	if len(sets) == 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	metricCatalogIngests.Inc()

	// Partition the batch by shard, preserving input order within a shard.
	byShard := make(map[uint][]*tle.TLE)
	for _, t := range sets {
		s := uint(t.CatalogNumber) % catalogShards
		byShard[s] = append(byShard[s], t)
	}
	shardIDs := make([]uint, 0, len(byShard))
	for s := range byShard {
		shardIDs = append(shardIDs, s)
	}
	sort.Slice(shardIDs, func(i, j int) bool { return shardIDs[i] < shardIDs[j] })

	old := c.state.Load()
	next := &catalogState{shards: old.shards, names: old.names}
	applied := 0
	newCats := map[int]bool{}
	var newest time.Time
	for _, sid := range shardIDs {
		// Copy-on-write: clone the shard's index, share untouched series.
		prev := old.shards[sid]
		shard := &shardState{series: make(map[int][]*tle.TLE, len(prev.series)+len(byShard[sid]))}
		for k, v := range prev.series {
			shard.series[k] = v
		}
		for _, t := range byShard[sid] {
			cat := t.CatalogNumber
			series := shard.series[cat]
			i := sort.Search(len(series), func(i int) bool { return !series[i].Epoch.Before(t.Epoch) })
			if i < len(series) && series[i].Epoch.Equal(t.Epoch) {
				metricCatalogDupes.Inc()
				continue
			}
			// Clone before insert: the old slice may be shared with readers.
			merged := make([]*tle.TLE, 0, len(series)+1)
			merged = append(merged, series[:i]...)
			merged = append(merged, t)
			merged = append(merged, series[i:]...)
			shard.series[cat] = merged
			newCats[cat] = true
			if t.Epoch.After(newest) {
				newest = t.Epoch
			}
			applied++
		}
		next.shards[sid] = shard
	}
	metricCatalogApplied.Add(int64(applied))
	if applied == 0 {
		return 0
	}
	added := make([]int, 0, len(newCats))
	for cat := range newCats {
		added = append(added, cat)
	}
	sort.Ints(added)

	// Publish the new group index: merged membership, bumped versions.
	next.groups = make(map[string]*groupMeta, len(old.groups)+1)
	for name, m := range old.groups {
		if name != group && !sharesCatalog(m.cats, added) {
			next.groups[name] = m
			continue
		}
		next.groups[name] = m.bumped(at, newest)
	}
	meta := next.groups[group]
	if meta == nil {
		meta = &groupMeta{version: 1, lastMod: at, horizon: newest}
		next.groups[group] = meta
		next.names = sortedKeys(next.groups)
	}
	cats := append([]int(nil), meta.cats...)
	for _, cat := range added {
		i := sort.SearchInts(cats, cat)
		if i < len(cats) && cats[i] == cat {
			continue
		}
		cats = append(cats, 0)
		copy(cats[i+1:], cats[i:])
		cats[i] = cat
	}
	meta.cats = cats
	c.state.Store(next)
	return applied
}

// bumped returns a copy of m one version on, modified at at, with its
// horizon raised to newest.
func (m *groupMeta) bumped(at, newest time.Time) *groupMeta {
	n := *m
	n.version++
	n.lastMod = at
	if newest.After(n.horizon) {
		n.horizon = newest
	}
	return &n
}

// sharesCatalog reports whether the sorted lists a and b intersect.
func sharesCatalog(a, b []int) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return true
		}
	}
	return false
}

// sortedKeys returns the group names of an index, sorted.
func sortedKeys(groups map[string]*groupMeta) []string {
	names := make([]string, 0, len(groups))
	for name := range groups {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// DeltaSets reports how many ingested element sets the delta currently
// holds, summed across shards — a cheap consistency probe for tests and the
// load harness ("zero dropped ingests").
func (c *Catalog) DeltaSets() int {
	n := 0
	for _, shard := range c.state.Load().shards {
		for _, series := range shard.series {
			n += len(series)
		}
	}
	return n
}
