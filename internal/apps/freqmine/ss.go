package freqmine

import (
	prometheus "repro"
	"repro/coll"
	"repro/internal/fpm"
)

// RunSS is the serialization-sets implementation: the FP-tree is built in
// the program context and treated as read-only during the isolation epoch;
// each frequent item's conditional mining is delegated with the item id as
// the external serialization set, so distinct items mine concurrently;
// mined itemsets accumulate in a reducible slice.
func RunSS(in *Input, delegates int) (*Output, prometheus.Stats) {
	rt := prometheus.Init(prometheus.WithDelegates(delegates))
	defer rt.Terminate()
	return RunSSOn(rt, in)
}

// RunSSOn runs with a caller-supplied runtime.
func RunSSOn(rt *prometheus.Runtime, in *Input) (*Output, prometheus.Stats) {
	treeRO := prometheus.NewReadOnly(rt, fpm.Build(in.Txns, in.MinSup))
	tree := treeRO.Get()
	items := (*tree).FrequentItems()
	results := coll.NewSlice[fpm.ItemSet](rt)
	// One writable task object per frequent item; the item id is the
	// serialization set (external serializer), so each item's mining is
	// its own set and the runtime spreads sets across delegates. Each mines
	// straight into the executing context's view.
	rt.BeginIsolation()
	for _, item := range items {
		w := prometheus.NewWritableSer(rt, item, prometheus.NullSerializer[int]())
		w.DelegateTo(uint64(item), func(c *prometheus.Ctx, it *int) {
			view := results.View(c)
			*view = (*tree).MineItem(*view, *it)
		})
	}
	rt.EndIsolation()
	return &Output{Sets: results.Result()}, rt.Stats()
}
