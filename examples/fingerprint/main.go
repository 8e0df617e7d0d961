// Fingerprint: generate the calibrated verified-like network and the
// generic-Twittersphere reference, measure both structural signatures, and
// print the contrast table — the heart of the paper's findings (higher
// reciprocity, power-law out-degrees, shorter paths, slight dissortativity),
// plus the "verified-likeness" score the conclusion sketches as future work.
//
//	go run ./examples/fingerprint
package main

import (
	"fmt"
	"log"
	"os"

	"elites/internal/core"
	"elites/internal/gen"
	"elites/internal/graph"
	"elites/internal/twitter"
)

func main() {
	const n = 8000
	verified, err := gen.Verified(n, 1)
	if err != nil {
		log.Fatal(err)
	}
	generic, err := gen.Twitter(n, 2)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("measuring fingerprints of two %d-node networks...\n\n", n)
	opts := core.Options{Stages: core.FingerprintStages(), BootstrapReps: 25, DistanceSources: 150, Seed: 7}
	core.CompareFingerprints(os.Stdout,
		[2]string{"verified-like", "generic"},
		[2]core.Fingerprint{fingerprint(verified.Graph, opts), fingerprint(generic.Graph, opts)})

	fmt.Println()
	// Classic baselines, scored against the verified signature.
	opts.SkipBootstrap = true
	for _, b := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"erdos-renyi", gen.ErdosRenyi(n, 0.004, 3)},
		{"barabasi-albert", gen.BarabasiAlbert(n, 16, 0.25, 4)},
		{"watts-strogatz", gen.WattsStrogatz(n, 16, 0.1, 5)},
	} {
		fmt.Printf("verified-likeness of %-16s %.3f\n", b.name+":", fingerprint(b.g, opts).VerifiedLikeness())
	}
}

// fingerprint runs the fingerprint stages over a bare graph and reads the
// signature from the report.
func fingerprint(g *graph.Digraph, opts core.Options) core.Fingerprint {
	rep, err := core.NewCharacterizer(opts).Run(&twitter.Dataset{Graph: g}, nil)
	if err != nil {
		log.Fatal(err)
	}
	return core.FingerprintOf(rep)
}
