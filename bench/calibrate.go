package main

import (
	"fmt"
	"math"
	"slices"
)

// pyQuartiles is Python's statistics.quantiles(values, n=4), the rule the
// acceptance check applies to ten runs ("exclusive" method).
func pyQuartiles(values []float64) (q1, q2, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	n := len(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// calibrate runs SETS interleaved sets of RUNS runs of every workload on the
// same tree, each run with its own seed, and prints for every end-to-end
// metric and workload each set's median and quartile spread, and how far the
// set medians are apart, as a share of the metric's bound. A bound is usable
// when two sets of the same code stay well inside it.
func calibrate(o options) error {
	var sets, runs int
	if _, err := fmt.Sscanf(o.repeat, "%dx%d", &sets, &runs); err != nil || sets < 2 || runs < 2 {
		return fmt.Errorf("--repeat wants SETSxRUNS with at least 2 of each, e.g. 2x10")
	}
	ws := workloads()
	if o.workload != "all" {
		ws = slices.DeleteFunc(ws, func(w *workload) bool { return w.name != o.workload })
	}
	// values[workload][metric][set] = one value per run
	values := map[string]map[string][][]float64{}
	seed := o.seed
	for r := 0; r < runs; r++ {
		for s := 0; s < sets; s++ {
			for _, w := range ws {
				res, err := child(o, w.name, seed, false)
				if err != nil {
					return err
				}
				if values[w.name] == nil {
					values[w.name] = map[string][][]float64{}
				}
				for _, d := range endToEnd {
					if values[w.name][d.name] == nil {
						values[w.name][d.name] = make([][]float64, sets)
					}
					values[w.name][d.name][s] = append(values[w.name][d.name][s], res.Metrics[d.name].Value)
				}
				fmt.Printf("run %d/%d set %d %-14s seed %d ok\n", r+1, runs, s+1, w.name, seed)
			}
			seed++
		}
	}
	fmt.Printf("\n%-14s %-14s %6s", "workload", "metric", "bound")
	for s := 0; s < sets; s++ {
		fmt.Printf(" %14s %7s", fmt.Sprintf("median[%d]", s+1), "iqr")
	}
	fmt.Printf(" %7s %9s\n", "gap", "gap/bound")
	worst := 0.0
	for _, w := range ws {
		for _, d := range endToEnd {
			fmt.Printf("%-14s %-14s %5.0f%%", w.name, d.name, d.bound*100)
			lo, hi := math.Inf(1), math.Inf(-1)
			for s := 0; s < sets; s++ {
				q1, q2, q3 := pyQuartiles(values[w.name][d.name][s])
				fmt.Printf(" %14.4f %6.1f%%", q2, (q3-q1)/q2*100)
				lo, hi = min(lo, q2), max(hi, q2)
			}
			gap := (hi - lo) / lo
			fmt.Printf(" %6.1f%% %9.2f\n", gap*100, gap/d.bound)
			worst = max(worst, gap/d.bound)
		}
	}
	fmt.Printf("\nlargest gap between set medians: %.2f of its bound\n", worst)
	return nil
}
