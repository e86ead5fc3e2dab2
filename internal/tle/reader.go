package tle

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"
)

// Reader streams element sets from 2LE or 3LE (name line + two element
// lines) text, the formats CelesTrak and Space-Track serve.
type Reader struct {
	s       *bufio.Scanner
	pending string // a lookahead line not yet consumed
	line    int
	// Strict controls error handling: when false (the default for bulk
	// archive ingestion), records that fail to parse are skipped and counted
	// instead of aborting the stream, because real tracking archives contain
	// corrupt records.
	Strict  bool
	skipped int
}

// NewReader wraps r in a TLE stream reader.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 256), 1024)
	return &Reader{s: s}
}

// Skipped reports how many malformed records were skipped (non-strict mode).
func (r *Reader) Skipped() int { return r.skipped }

func (r *Reader) next() (string, bool) {
	if r.pending != "" {
		l := r.pending
		r.pending = ""
		return l, true
	}
	for r.s.Scan() {
		r.line++
		l := strings.TrimRight(r.s.Text(), "\r\n")
		if strings.TrimSpace(l) == "" {
			continue
		}
		return l, true
	}
	return "", false
}

// Read returns the next element set, or io.EOF at end of stream.
func (r *Reader) Read() (*TLE, error) {
	for {
		l, ok := r.next()
		if !ok {
			if err := r.s.Err(); err != nil {
				return nil, err
			}
			return nil, io.EOF
		}
		name := ""
		if !strings.HasPrefix(l, "1 ") {
			// 3LE name line.
			name = strings.TrimSpace(strings.TrimPrefix(l, "0 "))
			l, ok = r.next()
			if !ok {
				if r.Strict {
					return nil, fmt.Errorf("tle: line %d: name %q with no element lines", r.line, name)
				}
				r.skipped++
				return nil, io.EOF
			}
		}
		l2, ok := r.next()
		if !ok {
			if r.Strict {
				return nil, fmt.Errorf("tle: line %d: element set truncated after line 1", r.line)
			}
			r.skipped++
			return nil, io.EOF
		}
		t, err := Parse(l, l2)
		if err != nil {
			if r.Strict {
				return nil, fmt.Errorf("tle: at input line %d: %w", r.line, err)
			}
			r.skipped++
			// The second line may actually start the next record.
			if strings.HasPrefix(l2, "1 ") {
				r.pending = l2
			}
			continue
		}
		t.Name = name
		return t, nil
	}
}

// ReadAll consumes the stream and returns every element set.
func ReadAll(rd io.Reader) ([]*TLE, error) {
	r := NewReader(rd)
	var out []*TLE
	for {
		t, err := r.Read()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, t)
	}
}

// Write encodes element sets to w, in 3LE form when names are present.
func Write(w io.Writer, sets []*TLE) error {
	const chunk = 32 << 10
	buf := make([]byte, 0, chunk+256)
	for _, t := range sets {
		if t.Name != "" {
			buf = append(append(buf, t.Name...), '\n')
		}
		var err error
		if buf, err = t.AppendLines(buf); err != nil {
			return err
		}
		if len(buf) >= chunk {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// Dedupe returns the element sets sorted by (catalog, epoch) with exact
// (catalog, epoch) duplicates collapsed to their first occurrence — the
// shape a fault-tolerant ingest needs when a flaky service replays or
// duplicates records. The input slice is not modified.
func Dedupe(sets []*TLE) []*TLE {
	if len(sets) < 2 {
		return sets
	}
	sorted := make([]*TLE, len(sets))
	copy(sorted, sets)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].CatalogNumber != sorted[j].CatalogNumber {
			return sorted[i].CatalogNumber < sorted[j].CatalogNumber
		}
		return sorted[i].Epoch.Before(sorted[j].Epoch)
	})
	out := sorted[:1]
	for _, t := range sorted[1:] {
		last := out[len(out)-1]
		if t.CatalogNumber == last.CatalogNumber && t.Epoch.Equal(last.Epoch) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// History is the time-ordered element-set history of one object.
type History struct {
	CatalogNumber int
	Sets          []*TLE // ascending by epoch
}

// Catalog groups element sets by catalog number, the shape CosmicDance works
// with after the Space-Track historical fetch.
type Catalog struct {
	byNumber map[int]*History
}

// NewCatalog builds a catalog from a flat list of element sets.
func NewCatalog(sets []*TLE) *Catalog {
	c := &Catalog{byNumber: make(map[int]*History)}
	for _, t := range sets {
		c.Add(t)
	}
	return c
}

// Add inserts one element set, keeping per-object history epoch-ordered.
func (c *Catalog) Add(t *TLE) {
	if c.byNumber == nil {
		c.byNumber = make(map[int]*History)
	}
	h := c.byNumber[t.CatalogNumber]
	if h == nil {
		h = &History{CatalogNumber: t.CatalogNumber}
		c.byNumber[t.CatalogNumber] = h
	}
	// Insert in order; appends are the common case because archives are
	// written chronologically.
	i := sort.Search(len(h.Sets), func(i int) bool { return h.Sets[i].Epoch.After(t.Epoch) })
	h.Sets = append(h.Sets, nil)
	copy(h.Sets[i+1:], h.Sets[i:])
	h.Sets[i] = t
}

// Object returns the history for one catalog number, or nil.
func (c *Catalog) Object(catalogNumber int) *History {
	if c.byNumber == nil {
		return nil
	}
	return c.byNumber[catalogNumber]
}

// Numbers returns all catalog numbers in ascending order.
func (c *Catalog) Numbers() []int {
	nums := make([]int, 0, len(c.byNumber))
	for n := range c.byNumber {
		nums = append(nums, n)
	}
	sort.Ints(nums)
	return nums
}

// Len returns the number of distinct objects.
func (c *Catalog) Len() int { return len(c.byNumber) }

// TotalSets returns the number of element sets across all objects.
func (c *Catalog) TotalSets() int {
	n := 0
	for _, h := range c.byNumber {
		n += len(h.Sets)
	}
	return n
}

// Latest returns the most recent element set, or nil for an empty history.
func (h *History) Latest() *TLE {
	if h == nil || len(h.Sets) == 0 {
		return nil
	}
	return h.Sets[len(h.Sets)-1]
}

// At returns the element set in effect at time t (latest epoch <= t).
func (h *History) At(at time.Time) *TLE {
	if h == nil {
		return nil
	}
	i := sort.Search(len(h.Sets), func(i int) bool { return h.Sets[i].Epoch.After(at) })
	if i == 0 {
		return nil
	}
	return h.Sets[i-1]
}

// Window returns the element sets with from <= epoch <= to.
func (h *History) Window(from, to time.Time) []*TLE {
	if h == nil {
		return nil
	}
	lo := sort.Search(len(h.Sets), func(i int) bool { return !h.Sets[i].Epoch.Before(from) })
	hi := sort.Search(len(h.Sets), func(i int) bool { return h.Sets[i].Epoch.After(to) })
	if lo >= hi {
		return nil
	}
	return h.Sets[lo:hi]
}
