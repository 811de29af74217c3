package serve

import "testing"

// TestHistogramQuantileEdges pins the fixed-bucket estimator's edge
// behavior: empty histograms, single-bucket mass, overflow saturation,
// and out-of-range q values must all return well-defined answers — the
// quantiles /metrics exposes sit on these.
func TestHistogramQuantileEdges(t *testing.T) {
	cases := []struct {
		name    string
		bounds  []int64
		samples []int64
		q       float64
		want    float64
	}{
		{"empty returns zero", []int64{10, 100}, nil, 0.99, 0},
		{"empty at q=0", []int64{10, 100}, nil, 0, 0},

		// All mass in one interior bucket: interpolation stays inside
		// that bucket's [lo, hi) span.
		{"single bucket q=0", []int64{10, 100}, []int64{50, 50, 50}, 0, 10},
		{"single bucket q=1", []int64{10, 100}, []int64{50, 50, 50}, 1, 100},
		{"single bucket median", []int64{10, 100}, []int64{50, 50}, 0.5, 55},

		// First bucket interpolates down to 0, not to a negative value.
		{"first bucket lower edge", []int64{10, 100}, []int64{5}, 0.1, 1},

		// All mass past the last bound: the estimate saturates at the
		// highest bound instead of extrapolating into the unknown.
		{"all-mass overflow p50", []int64{10, 100}, []int64{1000, 2000, 3000}, 0.5, 100},
		{"all-mass overflow p99", []int64{10, 100}, []int64{1000}, 0.99, 100},

		// Mixed mass: the overflow tail pulls high quantiles to the cap
		// while low quantiles still interpolate normally.
		{"mixed overflow p99", []int64{10, 100}, []int64{5, 5, 5, 5, 5, 5, 5, 5, 5, 1000}, 0.99, 100},

		// q outside [0,1] clamps instead of panicking or extrapolating.
		{"q below zero clamps", []int64{10, 100}, []int64{50}, -3, 10},
		{"q above one clamps", []int64{10, 100}, []int64{50}, 7, 100},

		// One bound only: every in-range sample interpolates in [0, bound],
		// overflow saturates at it.
		{"single bound in range", []int64{100}, []int64{30, 30}, 0.5, 50},
		{"single bound overflow", []int64{100}, []int64{500}, 0.5, 100},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			h := newHistogram(c.bounds...)
			for _, s := range c.samples {
				h.Observe(s)
			}
			if got := h.Quantile(c.q); got != c.want {
				t.Fatalf("Quantile(%v) = %v, want %v (samples %v, bounds %v)",
					c.q, got, c.want, c.samples, c.bounds)
			}
		})
	}
}

// TestHistogramConstructionPanics: the construction-time bound checks
// are what keep Observe check-free, so they must actually fire.
func TestHistogramConstructionPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		bounds []int64
	}{
		{"empty bounds", nil},
		{"unsorted bounds", []int64{10, 5}},
		{"duplicate bounds", []int64{10, 10}},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			newHistogram(c.bounds...)
		})
	}
}
