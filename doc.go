// Package elites is a from-scratch Go reproduction of "Elites Tweet?
// Characterizing the Twitter Verified User Network" (Paul et al., ICDE
// 2019). The programs are the commands under cmd/ (eliteanalyze,
// eliteserve, eliterouter, elitegen, elitecrawl) and the examples under
// examples/; each imports the internal/ packages it uses. This package
// declares nothing: it holds the module-wide tests (the report golden,
// the dead-export scan) and the benchmarks that regenerate the paper's
// tables and figures. docs/ARCHITECTURE.md describes the execution model.
package elites
