// Crawl: run the paper's §III data-acquisition pipeline against the
// simulated REST API, showing cursor pagination, the 15-request/15-minute
// rate windows (paid on a virtual clock), the English filter, and the
// equality of the crawled graph with the platform's ground truth.
//
//	go run ./examples/crawl
package main

import (
	"fmt"
	"log"
	"time"

	"elites/internal/twitter"
)

func main() {
	cfg := twitter.DefaultPlatformConfig(2500)
	cfg.Seed = 7
	platform, err := twitter.NewPlatform(cfg)
	if err != nil {
		log.Fatal(err)
	}
	api := twitter.NewAPI(platform)

	wall := time.Now()
	dataset, err := twitter.Crawl(api)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("crawl pipeline (paper §III):")
	fmt.Printf("  1. @verified friends enumerated:  %d ids\n", dataset.TotalVerified)
	fmt.Printf("  2. profiles fetched, 3. english:  %d kept (%.1f%%)\n",
		len(dataset.Profiles),
		100*float64(len(dataset.Profiles))/float64(dataset.TotalVerified))
	fmt.Printf("  4+5. verified-only sub-graph:     %d nodes, %d edges\n",
		dataset.Graph.NumNodes(), dataset.Graph.NumEdges())
	fmt.Println()
	fmt.Printf("API calls:                %d\n", dataset.APICalls)
	fmt.Printf("friends/ids throttles:    %d\n", dataset.FriendsThrottle)
	fmt.Printf("simulated crawl duration: %v (wall: %v)\n",
		dataset.SimulatedTime.Round(time.Minute), time.Since(wall).Round(time.Millisecond))

	// The crawler's output must equal the platform's ground truth.
	truth, err := twitter.DatasetFromPlatform(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nground truth check: crawled %d edges, platform holds %d → match: %v\n",
		dataset.Graph.NumEdges(), truth.Graph.NumEdges(),
		dataset.Graph.NumEdges() == truth.Graph.NumEdges())
}
