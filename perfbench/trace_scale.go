package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"runtime"
	"sync"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/parallel"
	"cosmicdance/internal/scale"
	"cosmicdance/internal/spaceweather"
)

// Analysis knobs of `cosmicdance scale` (internal/scale pins the same).
const (
	scaleEventPercentile = 95
	scaleWindowDays      = 30
	scaleMinDropKm       = 20
)

// scalePass is one traced replay of the scale-out.
type scalePass struct {
	t          *tracer
	report     []byte
	wall       time.Duration // whole replay
	streamWall time.Duration // parallel.Stream call
	chunks     int
	segBytes   int64
	satHours   float64
	obs        int
	pairs      int
	hits       int
	workerBusy time.Duration // Σ produce + consume time
}

// replayScale re-runs `cosmicdance scale` in-process at width (0: one per
// CPU): spaceweather.Generate, constellation.PlanChunks, then a
// parallel.Stream whose producers call ChunkPlan.RunChunk,
// core.BuildChunkPartial and artifact.EncodeSegment and whose consumer calls
// artifact.DecodeSegment and reduces the partial exactly as internal/scale
// does, so the report it writes must equal the CLI's byte for byte.
func replayScale(seed int64, width int) (*scalePass, error) {
	runtime.GC()
	ctx := context.Background()
	p := &scalePass{t: newTracer()}
	t := p.t
	start := time.Now()
	spec := scale.Spec{Sats: scaleSats, Days: scaleDays, Seed: seed, Parallelism: width}
	wcfg, fcfg, ccfg := scale.WeatherConfig(spec), scale.FleetConfig(spec), scale.CoreConfig()
	var w *dst.Index
	if err := t.do("spaceweather", func() (err error) { w, err = spaceweather.Generate(wcfg); return }); err != nil {
		return nil, err
	}
	events, err := core.WeatherEventsAbovePercentile(w, scaleEventPercentile, 1, 0)
	if err != nil {
		return nil, err
	}
	plan, err := constellation.PlanChunks(fcfg, artifact.DefaultChunkSize)
	if err != nil {
		return nil, err
	}
	p.chunks = plan.NumChunks()
	chunkCfg := ccfg
	chunkCfg.Parallelism = 1

	rep := &scale.Report{Sats: spec.Sats, Days: spec.Days, Seed: seed, Events: len(events),
		RawMin: math.Inf(1), RawMax: math.Inf(-1)}
	digest := sha256.New()
	var mu sync.Mutex
	produce := func(i int) ([]byte, error) {
		begin := time.Now()
		var res *constellation.Result
		if err := t.do("constellation", func() (err error) { res, err = plan.RunChunk(ctx, i, w); return }); err != nil {
			return nil, err
		}
		var part *core.ChunkPartial
		if err := t.do("core.build", func() (err error) { part, err = core.BuildChunkPartial(ctx, chunkCfg, res.Samples); return }); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := t.do("artifact.segment_encode", func() error { return artifact.EncodeSegment(&buf, i, part) }); err != nil {
			return nil, err
		}
		mu.Lock()
		p.obs += len(res.Samples)
		p.segBytes += int64(buf.Len())
		p.satHours += float64(len(res.Sats) * res.Hours)
		p.workerBusy += time.Since(begin)
		mu.Unlock()
		return buf.Bytes(), nil
	}
	consume := func(i int, blob []byte) error {
		begin := time.Now()
		var part *core.ChunkPartial
		var chunk int
		if err := t.do("artifact.segment_decode", func() (err error) { chunk, part, err = artifact.DecodeSegment(bytes.NewReader(blob)); return }); err != nil {
			return err
		}
		if chunk != i {
			return fmt.Errorf("segment %d decoded as chunk %d", i, chunk)
		}
		_ = t.do("core.assoc", func() error { p.reduce(rep, digest, ccfg, events, part); return nil })
		mu.Lock()
		p.workerBusy += time.Since(begin)
		mu.Unlock()
		return nil
	}
	streamStart := time.Now()
	if err := parallel.Stream(ctx, width, p.chunks, produce, consume); err != nil {
		return nil, err
	}
	p.streamWall = time.Since(streamStart)
	rep.Digest = hex.EncodeToString(digest.Sum(nil))
	var out bytes.Buffer
	if err := rep.WriteText(&out); err != nil {
		return nil, err
	}
	p.report = out.Bytes()
	p.wall = time.Since(start)
	t.logSpans(fmt.Sprintf("width %d", width))
	return p, nil
}

func hashI64(h hash.Hash, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}

// reduce folds one chunk partial into the report, as internal/scale does.
func (p *scalePass) reduce(r *scale.Report, digest hash.Hash, ccfg core.Config, events []core.Event, part *core.ChunkPartial) {
	f64 := func(v float64) { hashI64(digest, int64(math.Float64bits(v))) }
	f32 := func(v float32) { hashI64(digest, int64(math.Float32bits(v))) }
	for _, tr := range part.Tracks {
		r.Tracks++
		r.Points += int64(len(tr.Points))
		hashI64(digest, int64(tr.Catalog))
		hashI64(digest, int64(len(tr.Points)))
		f64(tr.OperationalAltKm)
		hashI64(digest, int64(tr.RaisingRemoved))
		for _, pt := range tr.Points {
			hashI64(digest, pt.Epoch)
			f32(pt.AltKm)
			f32(pt.BStar)
			f32(pt.Incl)
		}
		if on, ok := core.TrackDecayOnset(tr, ccfg.DecayFilterKm, scaleMinDropKm); ok {
			r.Onsets++
			r.MaxDropKm = math.Max(r.MaxDropKm, on.DropKm)
			hashI64(digest, on.At.Unix())
			f64(on.DropKm)
			f64(on.RateKmPerDay)
		}
		for _, ev := range events {
			p.pairs++
			dv, ok := core.AssociateTrack(ccfg, ev, tr, scaleWindowDays)
			if !ok {
				continue
			}
			p.hits++
			r.Deviations++
			r.MaxDevKm = math.Max(r.MaxDevKm, dv.MaxDevKm)
			hashI64(digest, dv.Event.Unix())
			f64(dv.MaxDevKm)
			f64(dv.MaxDrag)
		}
	}
	for _, v := range part.RawAlts {
		r.RawCount++
		r.RawSumBits += math.Float64bits(v)
		r.RawMin = math.Min(r.RawMin, v)
		r.RawMax = math.Max(r.RawMax, v)
	}
	r.Stats.TotalObservations += part.Stats.TotalObservations
	r.Stats.GrossErrors += part.Stats.GrossErrors
	r.Stats.RaisingRemoved += part.Stats.RaisingRemoved
	r.Stats.NonOperational += part.Stats.NonOperational
	r.Stats.Duplicates += part.Stats.Duplicates
}

// traceScale: one untraced CLI scale run, then traced replays at the host's
// width and at width 1. All three reports must be byte-identical.
func traceScale(o opts) (*result, error) {
	r := tracedResult()
	var out bytes.Buffer
	cli, err := o.runJob(&out, "cosmicdance", o.scaleArgs(scaleSats, scaleDays)...)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if !checkScaleReport(r, out.Bytes(), o.seed) {
		r.failed++
	}
	p, err := replayScale(o.seed, 0)
	if err != nil {
		return nil, err
	}
	p1, err := replayScale(o.seed, 1)
	if err != nil {
		return nil, err
	}
	for _, pass := range []struct {
		name string
		rep  []byte
	}{{"host width", p.report}, {"width 1", p1.report}} {
		r.attempted++
		if !bytes.Equal(pass.rep, out.Bytes()) {
			r.failed++
			r.fail("traced scale replay at %s: report differs from the CLI's", pass.name)
		}
	}

	width := float64(parallel.Workers(0))
	t, t1 := p.t, p1.t
	n := float64(p.chunks)
	// Chunk stages overlap at the host's width, so their speed-up compares
	// per-call time: width × (time per call at width 1 ÷ at host width).
	stageSpeedup := func(name string) float64 {
		return width * ratio(t1.get(name).wall.Seconds(), t.get(name).wall.Seconds())
	}
	r.layer("spaceweather.busy_s", t.get("spaceweather").wall.Seconds())
	fleet, fleet1 := t.get("constellation"), t1.get("constellation")
	r.layer("constellation.busy_s", fleet.wall.Seconds())
	r.layer("constellation.sat_hours", p.satHours)
	r.layer("constellation.cpu_ns_per_sat_hour", ratio(float64(fleet1.cpu.Nanoseconds()), p1.satHours))
	r.layer("constellation.speedup_w1", stageSpeedup("constellation"))
	r.layer("constellation.alloc_mib", mib(fleet1.alloc))
	r.layer("constellation.chunk_alloc_mib", mib(fleet1.alloc)/n)
	r.layer("parallel.stream_utilization", ratio(p.workerBusy.Seconds(), width*p.streamWall.Seconds()))
	r.layer("parallel.stream_speedup_w1", ratio(p1.streamWall.Seconds(), p.streamWall.Seconds()))
	build, build1 := t.get("core.build"), t1.get("core.build")
	r.layer("core.build_busy_s", build.wall.Seconds())
	r.layer("core.build_obs_per_s", ratio(float64(p.obs), build.wall.Seconds()))
	r.layer("core.build_alloc_mib", mib(build1.alloc))
	r.layer("core.build_speedup_w1", stageSpeedup("core.build"))
	r.layer("core.partial_alloc_mib_per_chunk", mib(build1.alloc)/n)
	assoc := t.get("core.assoc")
	r.layer("core.assoc_busy_s", assoc.wall.Seconds())
	r.layer("core.assoc_pairs", float64(p.pairs))
	r.layer("core.assoc_hit_ratio", ratio(float64(p.hits), float64(p.pairs)))
	// The consumer reduces serially at every width.
	r.layer("core.assoc_speedup_w1", ratio(t1.get("core.assoc").wall.Seconds(), assoc.wall.Seconds()))
	r.layer("artifact.segment_encode_s", t.get("artifact.segment_encode").wall.Seconds())
	r.layer("artifact.segment_decode_s", t.get("artifact.segment_decode").wall.Seconds())
	r.layer("artifact.segment_mib_per_chunk", mib(uint64(p.segBytes))/n)
	r.layer("obs.trace_overhead_pct", 100*(p.wall.Seconds()-cli.wall.Seconds())/cli.wall.Seconds())
	flagSpeedups(r, "constellation.speedup_w1", "core.build_speedup_w1", "core.assoc_speedup_w1", "parallel.stream_speedup_w1")
	return r, nil
}
