// Command elitecrawl runs the paper's §III data-acquisition pipeline against
// the simulated Twitter REST API: it enumerates the '@verified' handle's
// friends, batch-fetches profiles, keeps English accounts, pages through
// every friend list under 15-request/15-minute rate windows (on a virtual
// clock — no real waiting), induces the verified sub-graph, and reports what
// the crawl would have cost in real time.
//
// Usage:
//
//	elitecrawl -n 5000 -seed 42 -out ./dataset
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"elites/internal/store"
	"elites/internal/twitter"
)

func main() {
	var (
		n    = flag.Int("n", 5000, "number of verified users on the simulated platform")
		seed = flag.Uint64("seed", 42, "platform seed")
		out  = flag.String("out", "", "optional dataset output directory")
	)
	flag.Parse()
	if err := run(*n, *seed, *out); err != nil {
		fmt.Fprintln(os.Stderr, "elitecrawl:", err)
		os.Exit(1)
	}
}

func run(n int, seed uint64, out string) error {
	cfg := twitter.DefaultPlatformConfig(n)
	cfg.Seed = seed
	p, err := twitter.NewPlatform(cfg)
	if err != nil {
		return err
	}
	api := twitter.NewAPI(p)
	wall := time.Now()
	ds, err := twitter.Crawl(api)
	if err != nil {
		return err
	}
	fmt.Printf("crawl complete in %v wall time\n", time.Since(wall).Round(time.Millisecond))
	fmt.Printf("  verified accounts enumerated: %d\n", ds.TotalVerified)
	fmt.Printf("  english profiles kept:        %d\n", len(ds.Profiles))
	fmt.Printf("  verified-only edges:          %d\n", ds.Graph.NumEdges())
	fmt.Printf("  API calls:                    %d\n", ds.APICalls)
	fmt.Printf("  friends/ids throttles:        %d\n", ds.FriendsThrottle)
	fmt.Printf("  users/lookup throttles:       %d\n", ds.LookupThrottle)
	fmt.Printf("  simulated crawl duration:     %v\n", ds.SimulatedTime.Round(time.Minute))
	if out != "" {
		activity := p.ActivitySeries(p.EnglishNodes())
		meta := store.Meta{CreatedAt: time.Now().UTC(), Tool: "elitecrawl", Seed: seed}
		if err := store.SaveDataset(out, ds, activity, meta); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s\n", out)
	}
	return nil
}
