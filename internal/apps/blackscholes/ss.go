package blackscholes

import (
	prometheus "repro"
	"repro/internal/workload"
)

// RunSS is the serialization-sets implementation: the batch is cut into
// workload.Chunks ranges, each wrapped in a Writable with the sequence
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
	rs := workload.Chunks(n, rt.NumContexts())
	ws := make([]*prometheus.Writable[workload.Range], len(rs))
	for i, r := range rs {
		ws[i] = prometheus.NewWritable(rt, r)
	}
	opts := in.Options
	rt.BeginIsolation()
	prometheus.DoAll(ws, func(c *prometheus.Ctx, r *workload.Range) {
		priceRange(opts, out.Prices, r.Lo, r.Hi)
	})
	rt.EndIsolation()
	return out, rt.Stats()
}
