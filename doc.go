// Package elites is a from-scratch Go reproduction of "Elites Tweet?
// Characterizing the Twitter Verified User Network" (Paul et al., ICDE
// 2019). The programs are the commands under cmd/ (eliteanalyze,
// eliteserve, eliterouter, elitegen, elitecrawl) and the examples under
// examples/; each imports the internal/ packages it uses. This package
// declares nothing: it holds the module-wide tests (the report golden,
// the dead-export scan, and TestPaperClaims, the table of the paper's
// findings checked against the report) and the scheduling, sharding and
// ablation benchmarks. docs/ARCHITECTURE.md describes the execution model.
package elites
