package tle_test

import (
	"context"
	"strconv"
	"testing"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/tle"
)

// TestEncodeMatchesReferenceOnPaperFleet encodes every sample of the
// seed-42 paper fleet (about three million element sets) with both
// encoders: the bytes the pipeline and spacetrackd actually emit must not
// move.
func TestEncodeMatchesReferenceOnPaperFleet(t *testing.T) {
	if testing.Short() || tle.RaceEnabled {
		t.Skip("simulates the year-long paper fleet and encodes it twice")
	}
	weather, err := spaceweather.Generate(spaceweather.Paper2020to2024())
	if err != nil {
		t.Fatal(err)
	}
	res, err := constellation.Run(context.Background(), constellation.PaperFleet(42), weather)
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[int]string, len(res.Sats))
	for _, s := range res.Sats {
		names[s.Catalog] = s.Name
	}
	const shards = 4
	for shard := 0; shard < shards; shard++ {
		t.Run("shard"+strconv.Itoa(shard), func(t *testing.T) {
			t.Parallel()
			buf := make([]byte, 0, 160)
			for i := shard; i < len(res.Samples); i += shards {
				s := res.Samples[i]
				set, err := s.TLE(names[int(s.Catalog)])
				if err != nil {
					continue
				}
				w1, w2, werr := tle.ReferenceFormat(set)
				buf, err = set.AppendLines(buf[:0])
				if (err == nil) != (werr == nil) {
					t.Fatalf("sample %d: error %v, reference %v", i, err, werr)
				}
				if err == nil && string(buf) != w1+"\n"+w2+"\n" {
					t.Fatalf("sample %d:\n got %q\nwant %q", i, buf, w1+"\n"+w2+"\n")
				}
			}
		})
	}
}
