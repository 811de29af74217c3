// Package freqmine reproduces the PARSEC freqmine benchmark (Table 2):
// FP-growth frequent-itemset mining over a transaction database. In every
// variant the mining of each frequent item's conditional pattern base is an
// independent task, as in the original OpenMP program. RunSeq and RunCP
// build the FP-tree sequentially, as the original does; RunSS builds it
// under the model too (counting, ranked rows and one subtree per first
// item, each over independent parts), into the same tree. The paper notes its
// object-oriented port could not match the hand-optimized original
// (freqmine is the benchmark where SS loses the most ground in Figure 4)
// and that neither version scales past ~8 contexts (Figure 6) — an
// algorithmic property, since task sizes are highly skewed.
package freqmine

import (
	"repro/internal/fpm"
	"repro/internal/workload"
)

// Input is the transaction database plus the mining threshold.
type Input struct {
	Txns   []workload.Transaction
	MinSup int
}

// Output is the canonical (sorted) list of frequent itemsets.
type Output struct {
	Sets []fpm.ItemSet
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	cfg := workload.TxnSize(size)
	txns := workload.GenerateTransactions(cfg)
	return &Input{Txns: txns, MinSup: int(cfg.MinSupport * float64(len(txns)))}
}

// Canonical returns the itemsets sorted canonically (runners emit them in
// discovery order, which differs between implementations).
func (o *Output) Canonical() []fpm.ItemSet {
	sets := append([]fpm.ItemSet(nil), o.Sets...)
	fpm.SortItemSets(sets)
	return sets
}
