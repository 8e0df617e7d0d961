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
	"elites/internal/mathx"
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

	rng := mathx.NewRNG(7)
	fmt.Printf("measuring fingerprints of two %d-node networks...\n\n", n)
	fpVerified := core.ComputeFingerprint(verified.Graph, 25, rng)
	fpGeneric := core.ComputeFingerprint(generic.Graph, 25, rng)

	core.CompareFingerprints(os.Stdout,
		[2]string{"verified-like", "generic"},
		[2]core.Fingerprint{fpVerified, fpGeneric})

	fmt.Println()
	// Classic baselines, scored against the verified signature.
	for _, b := range []struct {
		name string
		g    *graph.Digraph
	}{
		{"erdos-renyi", gen.ErdosRenyi(n, 0.004, 3)},
		{"barabasi-albert", gen.BarabasiAlbert(n, 16, 0.25, 4)},
		{"watts-strogatz", gen.WattsStrogatz(n, 16, 0.1, 5)},
	} {
		fp := core.ComputeFingerprint(b.g, 0, rng)
		fmt.Printf("verified-likeness of %-16s %.3f\n", b.name+":", fp.VerifiedLikeness())
	}
}
