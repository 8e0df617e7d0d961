// Quickstart: build a small simulated verified-Twitter platform, run the
// paper's full characterization, and print the report.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"elites/internal/core"
	"elites/internal/graph"
	"elites/internal/twitter"
)

func main() {
	// A platform with 3,000 verified users (the paper's real network has
	// 231,246; everything here is scale-calibrated).
	cfg := twitter.DefaultPlatformConfig(3000)
	cfg.Seed = 42
	platform, err := twitter.NewPlatform(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The dataset is the English verified sub-graph with aligned profiles
	// — the artifact the paper's analyses consume.
	dataset, err := twitter.DatasetFromPlatform(platform)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %d english verified users, %d follow edges\n\n",
		dataset.Graph.NumNodes(), dataset.Graph.NumEdges())

	// One-liners from the analysis toolkit.
	fmt.Printf("reciprocity:    %.3f  (paper: 0.337)\n", graph.Reciprocity(dataset.Graph))
	fmt.Printf("clustering:     %.3f  (paper: 0.158)\n", graph.AverageLocalClustering(dataset.Graph))
	fmt.Printf("assortativity:  %+.3f (paper: -0.04)\n", graph.DegreeAssortativity(dataset.Graph))

	// The full battery: §III summary through §V activity analysis.
	activity := platform.ActivitySeries(platform.EnglishNodes())
	opts := core.Options{SkipBootstrap: true, Seed: 1} // keep the demo quick
	report, err := core.NewCharacterizer(opts).Run(dataset, activity)
	if err != nil {
		log.Fatal(err)
	}
	report.Render(os.Stdout)
}
