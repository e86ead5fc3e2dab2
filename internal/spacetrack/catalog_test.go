package spacetrack

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"cosmicdance/internal/tle"
)

// cloneSet copies a template element set under a new catalog number and
// epoch — the shape of a live-ingested observation.
func cloneSet(template *tle.TLE, catalog int, epoch time.Time) *tle.TLE {
	c := *template
	c.CatalogNumber = catalog
	c.Epoch = epoch.UTC()
	c.Name = fmt.Sprintf("INGEST-%d", catalog)
	return &c
}

func TestCatalogServesBaseUnchanged(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)

	if got, want := fmt.Sprint(cat.Groups()), fmt.Sprint(archive.Groups()); got != want {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	base := archive.GroupLatest("starlink", end)
	got := cat.GroupLatest("starlink", end)
	if len(got) != len(base) {
		t.Fatalf("GroupLatest = %d sets, want %d", len(got), len(base))
	}
	for i := range got {
		if got[i].CatalogNumber != base[i].CatalogNumber || !got[i].Epoch.Equal(base[i].Epoch) {
			t.Fatalf("set %d: (%d,%v) != (%d,%v)", i,
				got[i].CatalogNumber, got[i].Epoch, base[i].CatalogNumber, base[i].Epoch)
		}
	}
	catalog := base[0].CatalogNumber
	wantHist := archive.History(catalog, stStart, end)
	gotHist := cat.History(catalog, stStart, end)
	if len(gotHist) != len(wantHist) {
		t.Fatalf("History = %d sets, want %d", len(gotHist), len(wantHist))
	}
	if v, _, _, ok := cat.GroupVersion("starlink"); !ok || v != 1 {
		t.Fatalf("GroupVersion = %d,%v, want 1,true", v, ok)
	}
	if _, _, _, ok := cat.GroupVersion("oneweb"); ok {
		t.Fatal("unknown group reported a version")
	}
}

func TestCatalogIngestVisibilityAndVersions(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]

	// A brand-new satellite becomes visible in the group and its history.
	fresh := cloneSet(template, 90001, end.Add(-time.Hour))
	if n := cat.Ingest("starlink", []*tle.TLE{fresh}, end); n != 1 {
		t.Fatalf("Ingest applied %d, want 1", n)
	}
	latest := cat.GroupLatest("starlink", end)
	found := false
	for i, s := range latest {
		if s.CatalogNumber == 90001 {
			found = true
			if i == 0 || latest[i-1].CatalogNumber >= 90001 {
				t.Fatal("merged group list not ordered by catalog number")
			}
		}
	}
	if !found {
		t.Fatal("ingested satellite missing from GroupLatest")
	}
	if h := cat.History(90001, stStart, end); len(h) != 1 {
		t.Fatalf("ingested history = %d sets, want 1", len(h))
	}
	v, mod, _, _ := cat.GroupVersion("starlink")
	if v != 2 || !mod.Equal(end) {
		t.Fatalf("post-ingest version = %d@%v, want 2@%v", v, mod, end)
	}

	// Replaying the same batch is idempotent: no new pairs, no version bump.
	if n := cat.Ingest("starlink", []*tle.TLE{fresh}, end.Add(time.Hour)); n != 0 {
		t.Fatalf("duplicate ingest applied %d, want 0", n)
	}
	if v2, _, _, _ := cat.GroupVersion("starlink"); v2 != 2 {
		t.Fatalf("all-duplicate batch bumped version to %d", v2)
	}

	// A newer epoch for an existing base object supersedes it in
	// GroupLatest and lands in the merged history exactly once.
	existing := template.CatalogNumber
	newer := cloneSet(template, existing, template.Epoch.Add(30*time.Minute))
	if n := cat.Ingest("starlink", []*tle.TLE{newer}, end.Add(2*time.Hour)); n != 1 {
		t.Fatalf("superseding ingest applied %d, want 1", n)
	}
	latest = cat.GroupLatest("starlink", end)
	for _, s := range latest {
		if s.CatalogNumber == existing && !s.Epoch.Equal(newer.Epoch) {
			t.Fatalf("GroupLatest catalog %d epoch = %v, want superseding %v", existing, s.Epoch, newer.Epoch)
		}
	}
	hist := cat.History(existing, stStart, end)
	seen := map[int64]int{}
	for i := 1; i < len(hist); i++ {
		if hist[i].Epoch.Before(hist[i-1].Epoch) {
			t.Fatal("merged history not ascending")
		}
	}
	for _, s := range hist {
		seen[s.Epoch.Unix()]++
	}
	for epoch, n := range seen {
		if n > 1 {
			t.Fatalf("epoch %d appears %d times in merged history", epoch, n)
		}
	}
	if cat.DeltaSets() != 2 {
		t.Fatalf("DeltaSets = %d, want 2", cat.DeltaSets())
	}
}

func TestCatalogIngestNewGroup(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	cat.Ingest("oneweb", []*tle.TLE{cloneSet(template, 70001, end)}, end)

	groups := cat.Groups()
	if fmt.Sprint(groups) != "[oneweb starlink]" {
		t.Fatalf("Groups = %v, want [oneweb starlink]", groups)
	}
	if sets := cat.GroupLatest("oneweb", end); len(sets) != 1 || sets[0].CatalogNumber != 70001 {
		t.Fatalf("new group latest = %+v", sets)
	}
	if v, _, _, ok := cat.GroupVersion("oneweb"); !ok || v != 1 {
		t.Fatalf("new group version = %d,%v", v, ok)
	}
}

// TestCatalogVersionsFollowContent: a version must change whenever the
// group's latest sets can, and the horizon must cover every ingested
// epoch. An ingest into one group that supersedes a catalog another
// group's delta holds changes that group too, so it bumps both.
func TestCatalogVersionsFollowContent(t *testing.T) {
	archive, _, end := buildArchive(t, 5)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	if _, _, h, _ := cat.GroupVersion("starlink"); !h.Equal(end) {
		t.Fatalf("base horizon = %v, want the frontier %v", h, end)
	}

	future := end.Add(time.Hour)
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 70001, future)}, end)
	if v, _, h, _ := cat.GroupVersion("starlink"); v != 2 || !h.Equal(future) {
		t.Fatalf("after a future-epoch ingest: version %d horizon %v, want 2 and %v", v, h, future)
	}
	cat.Ingest("starlink", []*tle.TLE{cloneSet(template, 70002, end.Add(-time.Hour))}, end)
	if v, _, h, _ := cat.GroupVersion("starlink"); v != 3 || !h.Equal(future) {
		t.Fatalf("an older epoch moved the horizon: version %d horizon %v", v, h)
	}

	// 70001 lands in oneweb too: starlink's latest set for it changes.
	later := future.Add(time.Hour)
	cat.Ingest("oneweb", []*tle.TLE{cloneSet(template, 70001, later)}, end.Add(time.Minute))
	if v, mod, h, _ := cat.GroupVersion("starlink"); v != 4 || !mod.Equal(end.Add(time.Minute)) || !h.Equal(later) {
		t.Fatalf("shared catalog: starlink version %d lastMod %v horizon %v, want 4, %v, %v", v, mod, h, end.Add(time.Minute), later)
	}
	if v, _, h, _ := cat.GroupVersion("oneweb"); v != 1 || !h.Equal(later) {
		t.Fatalf("new group: version %d horizon %v", v, h)
	}
	// A catalog no other group holds leaves starlink alone.
	cat.Ingest("oneweb", []*tle.TLE{cloneSet(template, 70003, end)}, end.Add(2*time.Minute))
	if v, _, _, _ := cat.GroupVersion("starlink"); v != 4 {
		t.Fatalf("unrelated oneweb ingest bumped starlink to %d", v)
	}
}

func TestCatalogHistoryEachMatchesHistory(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]
	existing := template.CatalogNumber
	// Interleave delta epochs between base epochs.
	batch := []*tle.TLE{
		cloneSet(template, existing, template.Epoch.Add(90*time.Minute)),
		cloneSet(template, existing, stStart.Add(30*time.Minute)),
	}
	cat.Ingest("starlink", batch, end)

	want := cat.History(existing, stStart, end)
	var got []*tle.TLE
	if err := cat.HistoryEach(existing, stStart, end, func(s *tle.TLE) error {
		got = append(got, s)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("HistoryEach yielded %d, History returned %d", len(got), len(want))
	}
	for i := range got {
		if got[i].CatalogNumber != want[i].CatalogNumber || !got[i].Epoch.Equal(want[i].Epoch) {
			t.Fatalf("element %d diverges", i)
		}
	}
	// A yield error aborts the walk.
	calls := 0
	sentinel := fmt.Errorf("stop")
	if err := cat.HistoryEach(existing, stStart, end, func(*tle.TLE) error {
		calls++
		return sentinel
	}); err != sentinel || calls != 1 {
		t.Fatalf("yield error: err=%v calls=%d", err, calls)
	}
}

// TestCatalogCOWRaceStress is the serving-plane race gate: bulk readers
// hammer GroupLatest and History while a writer live-ingests, all under the
// race detector. Readers must always observe a fully consistent state —
// ordered groups, ascending histories — and the writer must never lose a
// set. A goroutine-count check mirrors the internal/parallel leak tests.
func TestCatalogCOWRaceStress(t *testing.T) {
	archive, _, end := buildArchive(t, 10)
	cat := NewCatalog(archive, end)
	template := archive.GroupLatest("starlink", end)[0]

	before := runtime.NumGoroutine()
	const (
		readers = 4
		batches = 50
		perSet  = 4
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				latest := cat.GroupLatest("starlink", end)
				for i := 1; i < len(latest); i++ {
					if latest[i].CatalogNumber <= latest[i-1].CatalogNumber {
						errs <- fmt.Errorf("reader %d: unordered GroupLatest", r)
						return
					}
				}
				hist := cat.History(90000+r, stStart, end)
				for i := 1; i < len(hist); i++ {
					if hist[i].Epoch.Before(hist[i-1].Epoch) {
						errs <- fmt.Errorf("reader %d: descending history", r)
						return
					}
				}
			}
		}(r)
	}
	applied := 0
	for b := 0; b < batches; b++ {
		batch := make([]*tle.TLE, 0, readers*perSet)
		for r := 0; r < readers; r++ {
			for k := 0; k < perSet; k++ {
				batch = append(batch, cloneSet(template, 90000+r,
					end.Add(time.Duration(b*perSet+k)*time.Minute)))
			}
		}
		applied += cat.Ingest("starlink", batch, end)
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if want := batches * readers * perSet; applied != want {
		t.Fatalf("writer applied %d sets, want %d (zero dropped ingests)", applied, want)
	}
	if got := cat.DeltaSets(); got != applied {
		t.Fatalf("DeltaSets = %d after %d applied sets", got, applied)
	}
	// The readers are gone: the goroutine count must return to its baseline
	// (with the same settle loop the parallel pool tests use).
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d before, %d after", before, runtime.NumGoroutine())
}
