package timeseries

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// DailySeries is a contiguous run of daily observations starting at Start
// (which should be midnight UTC of the first day).
type DailySeries struct {
	Start  time.Time
	Values []float64
}

// Date returns the date of observation i.
func (d *DailySeries) Date(i int) time.Time { return d.Start.AddDate(0, 0, i) }

// Len returns the number of days.
func (d *DailySeries) Len() int { return len(d.Values) }

// IndexOf returns the index of the given date, or -1 if out of range.
func (d *DailySeries) IndexOf(t time.Time) int {
	days := int(t.Sub(d.Start).Hours() / 24)
	if days < 0 || days >= len(d.Values) {
		return -1
	}
	return days
}

// WeekdayMeans returns the mean value per weekday (index 0 = Sunday). The
// paper observes that "activity rates on Sundays are reliably lower than
// those on weekdays".
func (d *DailySeries) WeekdayMeans() [7]float64 {
	var sums, counts [7]float64
	for i, v := range d.Values {
		w := int(d.Date(i).Weekday())
		sums[w] += v
		counts[w]++
	}
	var out [7]float64
	for w := range out {
		if counts[w] > 0 {
			out[w] = sums[w] / counts[w]
		}
	}
	return out
}

// CalendarMap renders the series as a GitHub-style calendar heatmap
// (Figure 6): one text block per month, rows are weekdays, columns week of
// month, intensity from quintiles of the whole series. The rendering is
// plain ASCII/Unicode suitable for terminals and logs.
func (d *DailySeries) CalendarMap() string {
	if len(d.Values) == 0 {
		return ""
	}
	// Quintile thresholds for intensity buckets.
	sorted := append([]float64(nil), d.Values...)
	sort.Float64s(sorted)
	q := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return sorted[idx]
	}
	thresholds := []float64{q(0.2), q(0.4), q(0.6), q(0.8)}
	glyphs := []rune{'·', '░', '▒', '▓', '█'}
	glyph := func(v float64) rune {
		for i, th := range thresholds {
			if v <= th {
				return glyphs[i]
			}
		}
		return glyphs[len(glyphs)-1]
	}
	var b strings.Builder
	// Group indices by month.
	type monthKey struct {
		y int
		m time.Month
	}
	months := []monthKey{}
	byMonth := map[monthKey][]int{}
	for i := range d.Values {
		t := d.Date(i)
		k := monthKey{t.Year(), t.Month()}
		if _, ok := byMonth[k]; !ok {
			months = append(months, k)
		}
		byMonth[k] = append(byMonth[k], i)
	}
	weekdayNames := []string{"Sun", "Mon", "Tue", "Wed", "Thu", "Fri", "Sat"}
	for _, k := range months {
		idxs := byMonth[k]
		fmt.Fprintf(&b, "%s %d\n", k.m.String()[:3], k.y)
		// Build a 7×6 grid: row = weekday, column = week of month.
		var grid [7][6]rune
		for r := range grid {
			for c := range grid[r] {
				grid[r][c] = ' '
			}
		}
		for _, i := range idxs {
			t := d.Date(i)
			w := int(t.Weekday())
			week := (t.Day() - 1 + int(firstWeekday(t))) / 7
			if week > 5 {
				week = 5
			}
			grid[w][week] = glyph(d.Values[i])
		}
		for w := 0; w < 7; w++ {
			fmt.Fprintf(&b, "  %s ", weekdayNames[w])
			for c := 0; c < 6; c++ {
				b.WriteRune(grid[w][c])
				b.WriteByte(' ')
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// firstWeekday returns the weekday of the first day of t's month.
func firstWeekday(t time.Time) time.Weekday {
	first := time.Date(t.Year(), t.Month(), 1, 0, 0, 0, 0, t.Location())
	return first.Weekday()
}
