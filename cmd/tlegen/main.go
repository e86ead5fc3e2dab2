// Command tlegen runs the constellation simulator against a synthetic solar
// activity scenario and writes the resulting tracking archive as standard
// 2LE/3LE text.
//
// Usage:
//
//	tlegen [-fleet paper|may2024|small] [-seed S] [-names] [-format tle|binary] [-out FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"time"

	"cosmicdance/internal/constellation"
	"cosmicdance/internal/obs"
	"cosmicdance/internal/spaceweather"
)

func main() {
	err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		obs.NewLogger(os.Stderr, slog.LevelInfo).Error("tlegen failed", "err", err)
		os.Exit(1)
	}
}

// run generates one archive with the given arguments, writing it to stdout
// (or the -out file) and status to stderr. Every argument is validated before
// the fleet is simulated or the -out file is created, so a usage error never
// truncates an existing archive.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tlegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fleet := fs.String("fleet", "small", "fleet preset: paper (4.5 y, ~2000 sats), may2024 (1 month, 5900 sats) or small (6 months, 40 sats)")
	seed := fs.Int64("seed", 42, "simulation seed")
	names := fs.Bool("names", false, "emit 3LE name lines")
	format := fs.String("format", "tle", "output format: tle (text archive) or binary (compact COSM archive)")
	out := fs.String("out", "", "write to this file instead of stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *format != "tle" && *format != "binary" {
		return fmt.Errorf("unknown format %q", *format)
	}

	var (
		cfg constellation.Config
		wx  spaceweather.Config
	)
	switch *fleet {
	case "paper":
		cfg = constellation.PaperFleet(*seed)
		wx = spaceweather.Paper2020to2024()
	case "may2024":
		cfg = constellation.May2024Fleet(*seed)
		wx = spaceweather.May2024()
	case "small":
		start := time.Date(2023, 1, 1, 0, 0, 0, 0, time.UTC)
		cfg = constellation.ResearchFleet(*seed, start, start.AddDate(0, 6, 0), 8)
		wx = spaceweather.Paper2020to2024()
	default:
		return fmt.Errorf("unknown fleet %q", *fleet)
	}
	weather, err := spaceweather.Generate(wx)
	if err != nil {
		return err
	}
	res, err := constellation.Run(ctx, cfg, weather)
	if err != nil {
		return err
	}
	w := stdout
	closeOut := func() error { return nil }
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		w = f
		closeOut = f.Close
	}
	if *format == "tle" {
		err = res.WriteTLEs(w, *names)
	} else {
		err = res.Save(w)
	}
	if cerr := closeOut(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	obs.NewLogger(stderr, slog.LevelInfo).Info("simulated archive", "satellites", len(res.Sats), "samples", len(res.Samples))
	return nil
}
