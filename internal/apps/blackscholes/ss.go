package blackscholes

import (
	prometheus "repro"
)

// RunSS is the serialization-sets implementation: the batch is split into
// several chunks per delegate, each wrapped in a Writable with the sequence
// serializer, and priced with DoAll (Figure 2, embarrassing parallelism).
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return runSS(rt, in)
}

// RunSSOn prices with a caller-supplied runtime (used by the harness for
// policy/queue ablations).
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	return runSS(rt, in)
}

func runSS(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	n := len(in.Options)
	out := &Output{Prices: make([]float64, n)}
	// Several chunks per executing context amortize delegation overhead
	// while leaving slack for load balancing; the +1 is the program context,
	// which takes chunks over from the delegates at the EndIsolation barrier.
	nChunks := 8 * (rt.NumDelegates() + 1)
	if nChunks > n {
		nChunks = n
	}
	type rng struct{ lo, hi int }
	ws := make([]*prometheus.Writable[rng], 0, nChunks)
	for c := 0; c < nChunks; c++ {
		lo, hi := n*c/nChunks, n*(c+1)/nChunks
		if lo == hi {
			continue
		}
		ws = append(ws, prometheus.NewWritable(rt, rng{lo, hi}))
	}
	opts := in.Options
	rt.BeginIsolation()
	prometheus.DoAll(ws, func(c *prometheus.Ctx, r *rng) {
		priceRange(opts, out.Prices, r.lo, r.hi)
	})
	rt.EndIsolation()
	return out, rt.Stats()
}
