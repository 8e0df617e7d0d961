// Activity: reproduce the paper's §V analysis on the simulated Firehose —
// the Figure 6 calendar heatmap, Ljung–Box and Box–Pierce portmanteau tests
// up to lag 185, the Augmented Dickey–Fuller stationarity verdict, and the
// PELT penalty sweep that isolates the Christmas and April change-points.
//
//	go run ./examples/activity
package main

import (
	"fmt"
	"log"

	"elites"
)

func main() {
	// The canonical instance (the §V verdicts are properties of one
	// 366-point realization; this configuration is the one the test
	// suite pins down, and README describes the analysis it feeds).
	cfg := elites.DefaultPlatformConfig(3000)
	cfg.Seed = 42
	platform, err := elites.NewPlatform(cfg)
	if err != nil {
		log.Fatal(err)
	}
	series := platform.ActivitySeries(platform.EnglishNodes())
	fmt.Printf("aggregate tweet activity of %d english verified users over %d days\n\n",
		len(platform.EnglishNodes()), series.Len())

	// Portmanteau tests (paper: max p ≈ 3.8e-38 — decisive rejection of
	// "no autocorrelation" at every horizon).
	lb, err := elites.LjungBox(series.Values, 185)
	if err != nil {
		log.Fatal(err)
	}
	bp, err := elites.BoxPierce(series.Values, 185)
	if err != nil {
		log.Fatal(err)
	}
	maxLB, maxBP := 0.0, 0.0
	for i := range lb {
		if lb[i].PValue > maxLB {
			maxLB = lb[i].PValue
		}
		if bp[i].PValue > maxBP {
			maxBP = bp[i].PValue
		}
	}
	fmt.Printf("Ljung–Box  max p over 185 horizons: %.3g\n", maxLB)
	fmt.Printf("Box–Pierce max p over 185 horizons: %.3g\n", maxBP)

	// Stationarity (paper: −3.86 vs critical −3.42).
	adf, err := elites.ADF(series.Values, elites.RegConstantTrend, -1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ADF statistic %.2f vs 5%% critical %.2f (lags %d) → stationary: %v\n",
		adf.Statistic, adf.Crit5, adf.Lags, adf.Stationary())

	// Change-points via the paper's penalty-cooling protocol.
	fmt.Println("\nPELT penalty sweep (index → date, stability):")
	for i, c := range elites.PenaltySweep(series.Values, 10, 400, 12, 7, 6) {
		if i >= 5 {
			break
		}
		fmt.Printf("  %s  stability %.2f\n",
			series.Date(c.Index).Format("2006-01-02"), c.Stability)
	}

	fmt.Println("\nFigure 6 calendar heatmap:")
	fmt.Print(series.CalendarMap())
}
