package histogram

import (
	prometheus "repro"
	"repro/internal/workload"
)

// RunSS is the serialization-sets implementation: the pixels are cut into
// workload.Chunks ranges, wrapped in Writables and delegated with DoAll;
// the histograms are a reducible (paper §2.2 technique 2), so each context
// accumulates privately and the final bins appear on first use after
// EndIsolation. The reduction is tiny relative to the scan, matching the
// paper's Figure 5a (histogram's reduction time is negligible).
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	type hist struct{ r, g, b Bins }
	red := prometheus.NewReducible(rt,
		func() hist { return hist{} },
		func(dst, src *hist) {
			addBins(&dst.r, &src.r)
			addBins(&dst.g, &src.g)
			addBins(&dst.b, &src.b)
		})
	n := len(in.Pixels) / 3
	rs := workload.Chunks(n, rt.NumContexts())
	ws := make([]*prometheus.Writable[workload.Range], len(rs))
	for i, r := range rs {
		ws[i] = prometheus.NewWritable(rt, r)
	}
	pixels := in.Pixels
	rt.BeginIsolation()
	prometheus.DoAll(ws, func(c *prometheus.Ctx, r *workload.Range) {
		view := red.View(c)
		accumulate(pixels, &view.r, &view.g, &view.b, r.Lo, r.Hi)
	})
	rt.EndIsolation()
	final := red.Result()
	return &Output{R: final.r, G: final.g, B: final.b}, rt.Stats()
}
