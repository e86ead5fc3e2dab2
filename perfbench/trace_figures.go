package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cosmicdance/internal/artifact"
	"cosmicdance/internal/constellation"
	"cosmicdance/internal/core"
	"cosmicdance/internal/dst"
	"cosmicdance/internal/report"
	"cosmicdance/internal/spaceweather"
	"cosmicdance/internal/stats"
)

// figReplay replays cmd/figures' full render in-process, calling each layer
// package directly in the CLI's order: the artifact cache lookups and stores
// the CLI's pipeline makes, spaceweather.Generate, constellation.Run,
// core.NewBuilder/Build, the Dataset analyses and report.Fig1–10.
type figReplay struct {
	ctx   context.Context
	t     *tracer
	cache *artifact.Cache // nil renders without the disk cache
	width int
	seed  int64

	weather  map[artifact.Fingerprint]*dst.Index
	fleets   map[artifact.Fingerprint]*constellation.Result
	datasets map[artifact.Fingerprint]*core.Dataset

	satHours   float64 // satellite-hours simulated, launch to run end
	buildObs   int     // observations fed to core builds
	assocPairs int     // event × track pairs swept by Associate
	assocHits  int     // deviations those sweeps returned
}

func newFigReplay(t *tracer, cache *artifact.Cache, width int, seed int64) *figReplay {
	return &figReplay{
		ctx: context.Background(), t: t, cache: cache, width: width, seed: seed,
		weather:  map[artifact.Fingerprint]*dst.Index{},
		fleets:   map[artifact.Fingerprint]*constellation.Result{},
		datasets: map[artifact.Fingerprint]*core.Dataset{},
	}
}

// store mirrors the pipeline: a failed cache store is a warning, not an error.
func (f *figReplay) store(fn func() error) {
	if err := f.t.do("artifact.encode", fn); err != nil {
		logf("artifact store failed: %v", err)
	}
}

func (f *figReplay) weatherFor(cfg spaceweather.Config) (*dst.Index, error) {
	fp := artifact.FingerprintWeather(cfg)
	if w, ok := f.weather[fp]; ok {
		return w, nil
	}
	var w *dst.Index
	var hit bool
	if f.cache != nil {
		_ = f.t.do("artifact.decode", func() error { w, hit = f.cache.LoadWeather(fp); return nil })
	}
	if !hit {
		err := f.t.do("spaceweather", func() (err error) { w, err = spaceweather.Generate(cfg); return })
		if err != nil {
			return nil, err
		}
		if f.cache != nil {
			f.store(func() error { return f.cache.StoreWeather(fp, w) })
		}
	}
	f.weather[fp] = w
	return w, nil
}

func (f *figReplay) fleetFor(tag string, wcfg spaceweather.Config, cfg constellation.Config) (*constellation.Result, error) {
	fp := artifact.FingerprintFleet(artifact.FingerprintWeather(wcfg), cfg)
	if res, ok := f.fleets[fp]; ok {
		return res, nil
	}
	var res *constellation.Result
	var hit bool
	if f.cache != nil {
		_ = f.t.do("artifact.decode", func() error { res, hit = f.cache.LoadArchive(fp); return nil })
	}
	if !hit {
		w, err := f.weatherFor(wcfg)
		if err != nil {
			return nil, err
		}
		err = f.t.do("constellation:"+tag, func() (err error) { res, err = constellation.Run(f.ctx, cfg, w); return })
		if err != nil {
			return nil, err
		}
		f.satHours += satHours(res)
		if f.cache != nil {
			f.store(func() error { return f.cache.StoreArchive(fp, res) })
		}
	}
	f.fleets[fp] = res
	return res, nil
}

func (f *figReplay) datasetFor(tag string, wcfg spaceweather.Config, fcfg constellation.Config, ccfg core.Config) (*core.Dataset, error) {
	fp := artifact.FingerprintDataset(artifact.FingerprintFleet(artifact.FingerprintWeather(wcfg), fcfg), ccfg)
	if d, ok := f.datasets[fp]; ok {
		return d, nil
	}
	var d *core.Dataset
	var hit bool
	if f.cache != nil {
		_ = f.t.do("artifact.decode", func() error { d, hit = f.cache.LoadDataset(fp, ccfg); return nil })
	}
	if !hit {
		w, err := f.weatherFor(wcfg)
		if err != nil {
			return nil, err
		}
		fleet, err := f.fleetFor(tag, wcfg, fcfg)
		if err != nil {
			return nil, err
		}
		f.buildObs += len(fleet.Samples)
		err = f.t.do("core.build:"+tag, func() (err error) {
			b := core.NewBuilder(ccfg, w)
			b.AddSamples(fleet.Samples)
			d, err = b.Build(f.ctx)
			return
		})
		if err != nil {
			return nil, err
		}
		if f.cache != nil {
			f.store(func() error { return f.cache.StoreDataset(fp, d) })
		}
	}
	f.datasets[fp] = d
	return d, nil
}

// assoc runs one analysis call under the association span.
func (f *figReplay) assoc(fn func() error) error { return f.t.do("core.assoc", fn) }

// associate is Dataset.Associate with the pair and hit counts.
func (f *figReplay) associate(d *core.Dataset, events []core.Event, days int) []core.Deviation {
	var devs []core.Deviation
	_ = f.assoc(func() error { devs = d.Associate(f.ctx, events, days); return nil })
	f.assocPairs += len(events) * len(d.Tracks())
	f.assocHits += len(devs)
	return devs
}

func (f *figReplay) render(fn func() error) error { return f.t.do("report", fn) }

// run renders Figs 1–10 exactly as `figures -seed S` does with no -figure.
func (f *figReplay) run(w io.Writer) error {
	weatherCfg := spaceweather.Paper2020to2024()
	weather, err := f.weatherFor(weatherCfg)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "building the paper-window substrate (4.5 years, ~2,000 satellites)...")
	fleetCfg := constellation.PaperFleet(f.seed)
	fleetCfg.Parallelism = f.width
	coreCfg := core.DefaultConfig()
	coreCfg.Parallelism = f.width
	dataset, err := f.datasetFor("paper", weatherCfg, fleetCfg, coreCfg)
	if err != nil {
		return err
	}
	fleet, err := f.fleetFor("paper", weatherCfg, fleetCfg)
	if err != nil {
		return err
	}

	if err := f.render(func() error { return report.Fig1(w, weather) }); err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig2(w, weather) }); err != nil {
		return err
	}
	from := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2024, 5, 8, 0, 0, 0, 0, time.UTC)
	cats := []int{constellation.Fig3SatDragSpike, constellation.Fig3SatQuietDecay, constellation.Fig3SatSharpDrop}
	if err := f.render(func() error { return report.Fig3(w, dataset, cats, from, to, 20) }); err != nil {
		return err
	}
	for _, cat := range cats { // the CLI derives the CSV series even without -csv
		if err := f.assoc(func() error { _, err := dataset.TimeSeries(cat, from, to); return err }); err != nil {
			return err
		}
	}

	var wa, qa *core.WindowAnalysis
	var quiet []time.Time
	if err := f.assoc(func() (err error) {
		wa, err = dataset.Window(f.ctx, spaceweather.Fig4Storm, core.WindowOptions{Days: 30, RequireHumpShape: true, MinPeakKm: 1})
		return
	}); err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig4(w, "Fig 4(a): altitude variation after a -112 nT event", wa) }); err != nil {
		return err
	}
	if err := f.assoc(func() (err error) {
		if quiet, err = dataset.QuietEpochs(80, 15, 1, 24*time.Hour); err != nil {
			return err
		}
		qa, err = dataset.Window(f.ctx, quiet[0], core.WindowOptions{Days: 15})
		return
	}); err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig4(w, "Fig 4(b): altitude variation on a quiet epoch", qa) }); err != nil {
		return err
	}
	if err := f.fig56(w, dataset); err != nil {
		return err
	}

	fmt.Fprintln(w, "\nbuilding the May 2024 full-scale fleet (5,900 satellites, one month)...")
	mayCfg := constellation.May2024Fleet(f.seed)
	mayCfg.Parallelism = f.width
	may, err := f.datasetFor("may2024", spaceweather.May2024(), mayCfg, coreCfg)
	if err != nil {
		return err
	}
	start := mayCfg.Start.UTC().Truncate(time.Hour)
	var rep *core.SuperStormReport
	if err := f.assoc(func() (err error) {
		rep, err = may.SuperStorm(start.Add(3*24*time.Hour), start.Add(30*24*time.Hour))
		return
	}); err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig7(w, rep) }); err != nil {
		return err
	}

	fifty, err := f.weatherFor(spaceweather.FiftyYears())
	if err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig8(w, fifty, spaceweather.NamedHistoricStorms()) }); err != nil {
		return err
	}
	l1 := make([]int, 0, 43)
	for c := 44713; c < 44713+43; c++ {
		l1 = append(l1, c)
	}
	if err := f.render(func() error { return report.Fig9(w, fleet, l1, 54) }); err != nil {
		return err
	}
	var rawCDF, cleanCDF *stats.CDF
	if err := f.assoc(func() (err error) {
		if rawCDF, err = dataset.RawAltitudeCDF(); err != nil {
			return err
		}
		cleanCDF, err = dataset.CleanAltitudeCDF()
		return
	}); err != nil {
		return err
	}
	return f.render(func() error { return report.Fig10(w, rawCDF, cleanCDF) })
}

func (f *figReplay) fig56(w io.Writer, d *core.Dataset) error {
	var quietEpochs []time.Time
	if err := f.assoc(func() (err error) { quietEpochs, err = d.QuietEpochs(80, 15, 20, 14*24*time.Hour); return }); err != nil {
		return err
	}
	var quiet []core.Deviation
	_ = f.assoc(func() error { quiet = d.AssociateQuiet(f.ctx, quietEpochs, 15); return nil })
	quietCDF, err := core.DeviationCDF(quiet)
	if err != nil {
		return err
	}
	events, err := d.EventsAbovePercentile(95, 1, 0)
	if err != nil {
		return err
	}
	devs := f.associate(d, events, 30)
	stormCDF, err := core.DeviationCDF(devs)
	if err != nil {
		return err
	}
	dragCDF, err := core.DragChangeCDF(devs)
	if err != nil {
		return err
	}
	if err := f.render(func() error { return report.Fig5(w, quietCDF, stormCDF, dragCDF) }); err != nil {
		return err
	}
	short, err := d.EventsAbovePercentile(99, 1, 8)
	if err != nil {
		return err
	}
	long, err := d.EventsAbovePercentile(99, 9, 0)
	if err != nil {
		return err
	}
	shortCDF, err := core.DeviationCDF(f.associate(d, short, 30))
	if err != nil {
		return err
	}
	longDevs := f.associate(d, long, 30)
	longCDF, err := core.DeviationCDF(longDevs)
	if err != nil {
		return err
	}
	dragLong, err := core.DragChangeCDF(longDevs)
	if err != nil {
		return err
	}
	return f.render(func() error { return report.Fig6(w, shortCDF, longCDF, dragLong) })
}

// figPass is one traced replay's outcome.
type figPass struct {
	*figReplay
	out          []byte
	wall         time.Duration
	tasks        int64
	batches      int64
	bytesWritten int64
	bytesRead    int64
}

// replayFigures renders once in-process at width against cache (nil: none).
func replayFigures(o opts, cache *artifact.Cache, width int) (*figPass, error) {
	runtime.GC()
	f := newFigReplay(newTracer(), cache, width, o.seed)
	var buf bytes.Buffer
	t0, b0 := parallelCounts()
	w0, r0 := cacheWritten.Value(), cacheRead.Value()
	start := time.Now()
	if err := f.run(&buf); err != nil {
		return nil, err
	}
	p := &figPass{figReplay: f, out: buf.Bytes(), wall: time.Since(start)}
	t1, b1 := parallelCounts()
	p.tasks, p.batches = t1-t0, b1-b0
	p.bytesWritten = cacheWritten.Value() - w0
	p.bytesRead = cacheRead.Value() - r0
	f.t.logSpans(fmt.Sprintf("width %d", width))
	return p, nil
}

// figuresLayers fills the per-layer metrics of a figures workload from the
// host-width pass p and the width-1 pass p1.
func figuresLayers(r *result, p, p1 *figPass, cli job) {
	t, t1 := p.t, p1.t
	r.layer("spaceweather.busy_s", t.get("spaceweather").wall.Seconds())
	fleet := t.get("constellation:paper", "constellation:may2024")
	r.layer("constellation.busy_s", fleet.wall.Seconds())
	r.layer("constellation.sat_hours", p.satHours)
	r.layer("constellation.cpu_ns_per_sat_hour", ratio(float64(fleet.cpu.Nanoseconds()), p.satHours))
	r.layer("constellation.utilization", utilization(fleet))
	r.layer("constellation.alloc_mib", mib(fleet.alloc))
	r.layer("constellation.speedup_w1", ratio(t1.get("constellation:paper").wall.Seconds(), t.get("constellation:paper").wall.Seconds()))
	r.layer("parallel.tasks_per_batch", ratio(float64(p.tasks), float64(p.batches)))
	build := t.get("core.build:paper", "core.build:may2024")
	r.layer("core.build_busy_s", build.wall.Seconds())
	r.layer("core.build_obs_per_s", ratio(float64(p.buildObs), build.wall.Seconds()))
	r.layer("core.build_alloc_mib", mib(build.alloc))
	r.layer("core.build_speedup_w1", ratio(t1.get("core.build:paper").wall.Seconds(), t.get("core.build:paper").wall.Seconds()))
	assoc := t.get("core.assoc")
	r.layer("core.assoc_busy_s", assoc.wall.Seconds())
	r.layer("core.assoc_pairs", float64(p.assocPairs))
	r.layer("core.assoc_hit_ratio", ratio(float64(p.assocHits), float64(p.assocPairs)))
	r.layer("core.assoc_speedup_w1", ratio(t1.get("core.assoc").wall.Seconds(), assoc.wall.Seconds()))
	r.layer("report.busy_s", t.get("report").wall.Seconds())
	r.layer("report.bytes_out", float64(len(p.out)))
	enc, dec := t.get("artifact.encode"), t.get("artifact.decode")
	r.layer("artifact.encode_s", enc.wall.Seconds())
	r.layer("artifact.bytes_written", float64(p.bytesWritten))
	r.layer("artifact.decode_s", dec.wall.Seconds())
	r.layer("artifact.decode_mib_per_s", ratio(mib(uint64(p.bytesRead)), dec.wall.Seconds()))
	r.layer("obs.trace_overhead_pct", 100*(p.wall.Seconds()-cli.wall.Seconds())/cli.wall.Seconds())
	flagSpeedups(r, "constellation.speedup_w1", "core.build_speedup_w1", "core.assoc_speedup_w1")
}

// checkReplay requires a traced render to equal the reference bytes.
func checkReplay(r *result, p *figPass, want []byte, what string) {
	r.attempted++
	if !bytes.Equal(p.out, want) {
		r.failed++
		r.fail("%s: traced replay rendered %d bytes that differ from the reference (%d bytes)", what, len(p.out), len(want))
	}
}

// traceFigures runs the traced figures workload. warm selects figures-warm:
// the cache is filled by an untraced cold render first and every pass
// renders against it; figures-cold gives each pass a fresh cache (the
// width-1 pass renders without one, as only its compute spans are compared).
func traceFigures(o opts, warm bool) (*result, error) {
	r := tracedResult()
	golden, err := o.golden(o.seed)
	if err != nil {
		return nil, err
	}
	cacheDir := filepath.Join(o.work, "cache")
	cliOut := filepath.Join(o.work, "cli.txt")
	if warm {
		if _, err := o.runJob(nil, "figures", o.figuresArgs(cacheDir, filepath.Join(o.work, "fill.txt"))...); err != nil {
			return nil, err
		}
	}
	cli, err := o.runJob(nil, "figures", o.figuresArgs(cacheDir, cliOut)...)
	if err != nil {
		return nil, err
	}
	ref, err := os.ReadFile(cliOut)
	if err != nil {
		return nil, err
	}
	r.attempted++
	if golden != nil && !bytes.Equal(ref, golden) {
		r.failed++
		r.fail("CLI render differs from the golden")
	}
	if golden != nil {
		ref = golden
	}
	if !warm {
		if err := os.RemoveAll(cacheDir); err != nil {
			return nil, err
		}
	}
	cache, err := artifact.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	p, err := replayFigures(o, cache, 0)
	if err != nil {
		return nil, err
	}
	checkReplay(r, p, ref, "host width")
	var cache1 *artifact.Cache
	if warm {
		cache1 = cache
	}
	p1, err := replayFigures(o, cache1, 1)
	if err != nil {
		return nil, err
	}
	checkReplay(r, p1, ref, "width 1")
	figuresLayers(r, p, p1, cli)
	return r, nil
}

func traceFiguresCold(o opts) (*result, error) { return traceFigures(o, false) }
func traceFiguresWarm(o opts) (*result, error) { return traceFigures(o, true) }
