package main

import (
	"fmt"
	"slices"
	"sort"
)

// metric is one named number of the report.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// note is printed beside the value: its sample count and base.
	note string
	// printOnly keeps a metric out of the result line: one that reads 0
	// on every healthy run, which the result's failed count carries.
	printOnly bool
}

type report struct {
	order   []string
	metrics map[string]metric
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) add(name string, value float64, unit, note string, args ...any) {
	r.order = append(r.order, name)
	r.metrics[name] = metric{Value: value, Unit: unit, note: fmt.Sprintf(note, args...)}
}

// printOnly marks an added metric as printed but not in the result line.
func (r *report) printOnly(name string) {
	m := r.metrics[name]
	m.printOnly = true
	r.metrics[name] = m
}

// result returns the metrics of the result line.
func (r *report) result() map[string]metric {
	out := map[string]metric{}
	for name, m := range r.metrics {
		if !m.printOnly {
			out[name] = m
		}
	}
	return out
}

func (r *report) print() {
	for _, name := range r.order {
		m := r.metrics[name]
		fmt.Printf("  %-26s %16.6g %-6s %s\n", name, m.Value, m.Unit, m.note)
	}
}

// quantile returns the q-quantile of whole-nanosecond samples, exactly:
// no buckets. Each sample value v stands for the clock interval
// [v-0.5, v+0.5), and the quantile interpolates inside the interval that
// holds rank q·n (the grouped-data estimator), so runs whose samples
// share an integer median still report the digits that tell them apart.
func quantile(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	v := sorted[min(int(rank), n-1)]
	lo := sort.Search(n, func(i int) bool { return sorted[i] >= v })
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v })
	return float64(v) - 0.5 + (rank-float64(lo))/float64(hi-lo)
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio is a/b, and 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
