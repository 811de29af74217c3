package wordcount

import (
	prometheus "repro"
	"repro/internal/workload"
)

// RunSS is the serialization-sets implementation: the text is cut into
// workload.Chunks ranges, moved to word boundaries, wrapped in Writables
// (sequence serializer) and delegated; counts accumulate in a reducible
// dictionary (the paper's reducible map over the STL map). The final reduction is the ~30% reduction share the paper
// reports for word_count in Figure 5a.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	red := prometheus.NewReducible(rt,
		func() dict { return newDict() },
		func(dst, src *dict) { dst.merge(*src) })
	chunks := splitWords(in.Text, workload.Chunks(len(in.Text), rt.NumContexts()))
	ws := make([]*prometheus.Writable[[]byte], len(chunks))
	for i, c := range chunks {
		ws[i] = prometheus.NewWritable(rt, c)
	}
	rt.BeginIsolation()
	prometheus.DoAll(ws, func(c *prometheus.Ctx, data *[]byte) {
		countInto(*data, *red.View(c))
	})
	rt.EndIsolation()
	counts := red.Result().freeze()
	return &Output{Counts: counts, Top: top(counts, TopN)}, rt.Stats()
}
