// Command elitegen generates a synthetic verified-Twitter dataset — follow
// graph, profiles and the one-year activity series — and persists it as a
// dataset directory consumable by eliteanalyze.
//
// Usage:
//
//	elitegen -n 20000 -seed 42 -out ./dataset
//	elitegen -kind twitter -n 20000 -out ./generic   # generic-Twittersphere reference
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"elites/internal/gen"
	"elites/internal/store"
	"elites/internal/twitter"
)

func main() {
	var (
		n    = flag.Int("n", 20000, "number of verified users")
		seed = flag.Uint64("seed", 42, "generation seed")
		out  = flag.String("out", "dataset", "output directory")
		kind = flag.String("kind", "verified", "graph kind: verified | twitter")
	)
	flag.Parse()
	if err := run(*n, *seed, *out, *kind); err != nil {
		fmt.Fprintln(os.Stderr, "elitegen:", err)
		os.Exit(1)
	}
}

func run(n int, seed uint64, out, kind string) error {
	cfg := twitter.DefaultPlatformConfig(n)
	cfg.Seed = seed
	switch kind {
	case "verified":
		// default GraphConfig
	case "twitter":
		g := gen.TwitterDefaults(n)
		g.Seed = seed
		cfg.GraphConfig = g
	default:
		return fmt.Errorf("unknown -kind %q (want verified or twitter)", kind)
	}
	start := time.Now()
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		return err
	}
	ds, err := twitter.DatasetFromPlatform(p)
	if err != nil {
		return err
	}
	activity := p.ActivitySeries(p.EnglishNodes())
	fmt.Printf("generated %d verified users (%d english), %d edges in %v\n",
		p.NumVerified(), ds.Graph.NumNodes(), ds.Graph.NumEdges(),
		time.Since(start).Round(time.Millisecond))
	meta := store.Meta{
		CreatedAt: time.Now().UTC(),
		Tool:      "elitegen -kind " + kind,
		Seed:      seed,
	}
	if err := store.SaveDataset(out, ds, activity, meta); err != nil {
		return err
	}
	fmt.Printf("dataset written to %s\n", out)
	return nil
}
