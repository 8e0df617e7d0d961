// Separation: the whitelisting idea from the paper's related work
// (Hentschel et al.: "most non-verified users on Twitter are within 7
// degrees of separation of a verified user; spam handles sit 7–10 degrees
// out"). We measure how much of the verified network each account can reach
// within k hops, and rank accounts by personalized PageRank from the
// celebrity core — the machinery a verification-triage tool would use.
//
//	go run ./examples/separation
package main

import (
	"fmt"
	"log"
	"sort"

	"elites/internal/centrality"
	"elites/internal/gen"
	"elites/internal/graph"
)

func main() {
	res, err := gen.Verified(6000, 11)
	if err != nil {
		log.Fatal(err)
	}
	g := res.Graph

	// Hop coverage: from a typical (median out-degree) account, how much
	// of the network is within k hops?
	deg := g.OutDegrees()
	type nd struct{ node, d int }
	var nodes []nd
	for v, d := range deg {
		if d > 0 {
			nodes = append(nodes, nd{v, d})
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].d < nodes[j].d })
	median := nodes[len(nodes)/2].node

	fmt.Printf("hop coverage from a median-degree account (out-degree %d):\n", deg[median])
	counts := graph.DegreesWithinK(g, median, 7)
	cum := 0
	for k, c := range counts {
		cum += c
		fmt.Printf("  within %d hops: %6d accounts (%.1f%% of network)\n",
			k, cum, 100*float64(cum)/float64(g.NumNodes()))
	}

	// Personalized PageRank from the celebrity core: which accounts are
	// structurally closest to the "elites"?
	var seeds []int
	for v, role := range res.Roles {
		if role.String() == "celebrity-sink" {
			seeds = append(seeds, v)
		}
	}
	if len(seeds) == 0 {
		// Fall back to the top in-degree accounts.
		in := g.InDegrees()
		best := 0
		for v := range in {
			if in[v] > in[best] {
				best = v
			}
		}
		seeds = []int{best}
	}
	// Walk from the core over reversed edges: "who is followed-close to
	// the celebrities".
	ppr, err := centrality.PersonalizedPageRank(g.Reverse(), seeds, nil)
	if err != nil {
		log.Fatal(err)
	}
	type scored struct {
		node  int
		score float64
	}
	var ranked []scored
	for v, s := range ppr {
		ranked = append(ranked, scored{v, s})
	}
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].score > ranked[j].score })
	fmt.Printf("\ntop-10 accounts by personalized PageRank from the celebrity core:\n")
	in := g.InDegrees()
	for i := 0; i < 10 && i < len(ranked); i++ {
		r := ranked[i]
		fmt.Printf("  node %5d  score %.5f  in-degree %5d  role %s\n",
			r.node, r.score, in[r.node], res.Roles[r.node])
	}
}
