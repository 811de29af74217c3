package freqmine

import (
	prometheus "repro"
	"repro/internal/fpm"
	"repro/internal/workload"
)

// RunSS is the serialization-sets implementation. The FP-tree is built in
// three isolation epochs of an fpm.Builder: transaction shards count item
// supports into a reducible count; in the gap the items are ranked, and
// the shards write their ranked rows; then each group of rows that share a
// first item fills its own subtree, one set per group, and the gap joins
// the subtrees into the tree fpm.Build makes. The tree is read-only during
// the mining epoch, where each frequent item's conditional mining is
// delegated with the item id as the external serialization set, so
// distinct items mine concurrently. Mined itemsets go into each context's
// blocks, which the program context copies once into the output.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	treeRO := prometheus.NewReadOnly(rt, buildSS(rt, in))
	tree := treeRO.Get()
	items := (*tree).FrequentItems()
	results := prometheus.NewReducible(rt,
		func() fpm.Sets { return fpm.Sets{} },
		func(dst, src *fpm.Sets) { dst.Join(src) })
	// One writable task object per frequent item; the item id is the
	// serialization set (external serializer), so each item's mining is
	// its own set and the runtime spreads sets across delegates. Each mines
	// straight into the executing context's view.
	rt.BeginIsolation()
	for _, item := range items {
		w := prometheus.NewWritableSer(rt, item, prometheus.NullSerializer[int]())
		w.DelegateTo(uint64(item), func(c *prometheus.Ctx, it *int) {
			(*tree).MineItem(results.View(c), *it)
		})
	}
	rt.EndIsolation()
	return &Output{Sets: results.Result().Slice()}, rt.Stats()
}

// buildSS builds the FP-tree under the model (see RunSS).
func buildSS(rt *prometheus.Runtime, in *Input) *fpm.Tree {
	txns := in.Txns
	rs := workload.Chunks(len(txns), rt.NumContexts())
	shards := make([]*prometheus.Writable[workload.Range], len(rs))
	for i, r := range rs {
		shards[i] = prometheus.NewWritable(rt, r)
	}
	sup := prometheus.NewReducible(rt, fpm.NewSupports,
		func(dst, src *fpm.Supports) { dst.Merge(src) })
	rt.BeginIsolation()
	prometheus.DoAll(shards, func(c *prometheus.Ctx, r *workload.Range) {
		sup.View(c).Count(txns[r.Lo:r.Hi])
	})
	rt.EndIsolation()

	b := fpm.NewBuilder(txns, sup.Result(), in.MinSup)
	rt.BeginIsolation()
	prometheus.DoAll(shards, func(c *prometheus.Ctx, r *workload.Range) {
		b.Rows(r.Lo, r.Hi)
	})
	rt.EndIsolation()

	groups := make([]*prometheus.Writable[int], b.Groups())
	for g := range groups {
		groups[g] = prometheus.NewWritable(rt, g)
	}
	rt.BeginIsolation()
	prometheus.DoAll(groups, func(c *prometheus.Ctx, g *int) { b.Fill(*g) })
	rt.EndIsolation()
	return b.Tree()
}
