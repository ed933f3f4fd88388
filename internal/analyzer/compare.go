package analyzer

import (
	"fmt"
	"io"
	"sort"
)

// Experiment comparison: er_print-style before/after views, used to
// quantify the §3.3 optimizations function by function (e.g. how much of
// refresh_potential's E$ stall the struct re-layout removed).

// CompareRow is one function's metrics in two analyses.
type CompareRow struct {
	Name   string
	Before Metrics
	After  Metrics
}

// CompareFunctions joins the function lists of two analyses over the same
// program, sorted by the "before" metric, descending.
func CompareFunctions(before, after *Analyzer, s SortBy) []CompareRow {
	names := map[string]bool{}
	for n := range before.byFunc {
		names[n] = true
	}
	for n := range after.byFunc {
		names[n] = true
	}
	rows := make([]CompareRow, 0, len(names)+1)
	rows = append(rows, CompareRow{Name: "<Total>", Before: before.total, After: after.total})
	for n := range names {
		r := CompareRow{Name: n}
		if m := before.byFunc[n]; m != nil {
			r.Before = *m
		}
		if m := after.byFunc[n]; m != nil {
			r.After = *m
		}
		rows = append(rows, r)
	}
	sort.SliceStable(rows[1:], func(i, j int) bool {
		wi := before.weight(&rows[i+1].Before, s)
		wj := before.weight(&rows[j+1].Before, s)
		if wi != wj {
			return wi > wj
		}
		return rows[i+1].Name < rows[j+1].Name
	})
	return rows
}

// CompareReport renders a before/after function comparison for one
// metric. Both analyses must have collected the metric at the same
// overflow interval (guaranteed when both used the same collect spec).
func CompareReport(w io.Writer, before, after *Analyzer, s SortBy, n int) error {
	if !s.Clock {
		ib, okb := before.Intervals[s.Ev]
		ia, oka := after.Intervals[s.Ev]
		if !okb || !oka {
			return fmt.Errorf("analyzer: metric %v not collected in both experiments", s.Ev)
		}
		if ib != ia {
			return fmt.Errorf("analyzer: metric %v collected at different intervals (%d vs %d)", s.Ev, ib, ia)
		}
	} else if !before.HasClock() || !after.HasClock() {
		return fmt.Errorf("analyzer: clock profiles not present in both experiments")
	}
	metricName := "User CPU"
	if !s.Clock {
		metricName = s.Ev.Title()
	}
	fmt.Fprintf(w, "%-28s %14s %14s %9s\n", "Function ("+metricName+")", "before", "after", "change")
	rows := CompareFunctions(before, after, s)
	if n > 0 && len(rows) > n+1 {
		rows = rows[:n+1]
	}
	for _, r := range rows {
		vb := before.weight(&r.Before, s)
		va := after.weight(&r.After, s)
		change := "-"
		if vb > 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(va-vb)/vb)
		} else if va > 0 {
			change = "new"
		}
		fmt.Fprintf(w, "%-28s %14.0f %14.0f %9s\n", r.Name, vb, va, change)
	}
	return nil
}
