package fpm

import (
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/workload"
)

func smallDB() []workload.Transaction {
	// Classic FP-growth textbook example.
	return []workload.Transaction{
		{1, 2, 5},
		{2, 4},
		{2, 3},
		{1, 2, 4},
		{1, 3},
		{2, 3},
		{1, 3},
		{1, 2, 3, 5},
		{1, 2, 3},
	}
}

func TestMineAllMatchesBruteForceTextbook(t *testing.T) {
	txns := smallDB()
	got := Build(txns, 2).MineAll()
	want := BruteForce(txns, 2, 5)
	SortItemSets(got)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FP-growth = %v\nbrute     = %v", got, want)
	}
}

func TestMineAllMatchesBruteForceRandom(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 10; trial++ {
		var txns []workload.Transaction
		n := 20 + r.Intn(60)
		for i := 0; i < n; i++ {
			var txn workload.Transaction
			seen := map[int]bool{}
			for k := 0; k < 1+r.Intn(6); k++ {
				it := r.Intn(12)
				if !seen[it] {
					seen[it] = true
					txn = append(txn, it)
				}
			}
			txns = append(txns, txn)
		}
		minSup := 2 + r.Intn(4)
		got := Build(txns, minSup).MineAll()
		want := BruteForce(txns, minSup, 12)
		SortItemSets(got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (minSup %d):\nFP-growth = %v\nbrute     = %v", trial, minSup, got, want)
		}
	}
}

// TestMineAllSparseItemIDs: ids outside the item table's slice — negative,
// or past smallItems — mine exactly like small ones.
func TestMineAllSparseItemIDs(t *testing.T) {
	ids := map[int]int{1: -7, 2: smallItems, 3: 3, 4: 1 << 20, 5: smallItems + 9}
	var txns []workload.Transaction
	for _, txn := range smallDB() {
		var mapped workload.Transaction
		for _, it := range txn {
			mapped = append(mapped, ids[it])
		}
		txns = append(txns, mapped)
	}
	got, want := Build(txns, 2).MineAll(), BruteForce(txns, 2, 5)
	SortItemSets(got)
	SortItemSets(want)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FP-growth = %v\nbrute     = %v", got, want)
	}
}

func TestPerItemMiningPartitionsResults(t *testing.T) {
	// MineAll == union of MineItem over FrequentItems, disjointly: this is
	// the independence property the parallel drivers rely on.
	txns := smallDB()
	tree := Build(txns, 2)
	all := tree.MineAll()
	seen := map[string]int{}
	for _, is := range all {
		seen[is.Key()]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("itemset %x produced by %d items", k, n)
		}
	}
	var sets Sets
	for _, it := range tree.FrequentItems() {
		tree.MineItem(&sets, it)
	}
	union := sets.Slice()
	SortItemSets(union)
	SortItemSets(all)
	if !reflect.DeepEqual(union, all) {
		t.Fatal("per-item union differs from MineAll")
	}
}

// support is a frequent item's support in the tree.
func (t *Tree) support(item int) int { return t.counts[t.ranks.get(item)-1] }

func TestFrequentItemsOrderAndThreshold(t *testing.T) {
	tree := Build(smallDB(), 2)
	items := tree.FrequentItems()
	if len(items) == 0 {
		t.Fatal("no frequent items")
	}
	for _, it := range items {
		if tree.support(it) < 2 {
			t.Fatalf("item %d below support", it)
		}
	}
	// Mining order: exact reverse rank order, so least frequent first and,
	// among equal supports, the larger item id first (Build breaks ties by
	// ascending id).
	for i := 1; i < len(items); i++ {
		if tree.ranks.get(items[i-1]) <= tree.ranks.get(items[i]) {
			t.Fatal("FrequentItems not in reverse rank order")
		}
		a, b := tree.support(items[i-1]), tree.support(items[i])
		if a > b || a == b && items[i-1] < items[i] {
			t.Fatalf("items %d (support %d) and %d (support %d) ranked out of order", items[i-1], a, items[i], b)
		}
	}
	// Item 6 never appears; item 4 appears twice; item 5 twice.
	counts := map[int]int{}
	for _, txn := range smallDB() {
		for _, it := range txn {
			counts[it]++
		}
	}
	for _, it := range items {
		if counts[it] < 2 {
			t.Fatalf("infrequent item %d reported", it)
		}
	}
}

func TestHighSupportYieldsNothing(t *testing.T) {
	if got := Build(smallDB(), 100).MineAll(); len(got) != 0 {
		t.Fatalf("minSup 100 mined %v", got)
	}
}

func TestEmptyDatabase(t *testing.T) {
	if got := Build(nil, 1).MineAll(); len(got) != 0 {
		t.Fatalf("empty DB mined %v", got)
	}
}

func TestGeneratedWorkloadMines(t *testing.T) {
	cfg := workload.TxnSize(workload.Small)
	cfg.Count = 3000 // keep the test fast
	txns := workload.GenerateTransactions(cfg)
	minSup := int(cfg.MinSupport * float64(len(txns)))
	tree := Build(txns, minSup)
	sets := tree.MineAll()
	if len(sets) == 0 {
		t.Fatal("generator produced no frequent itemsets")
	}
	multi := 0
	for _, s := range sets {
		if s.Support < minSup {
			t.Fatalf("itemset %v below support", s)
		}
		if len(s.Items) >= 2 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-item frequent itemsets; embedded patterns not mined")
	}
}

// TestMineItemAllocatesOnlyOutput: once a miner's buffers have grown,
// mining an item allocates only what it returns — the blocks its itemsets
// fill and the blocks their items are cut from — not per path, per
// conditional tree or per sort.
func TestMineItemAllocatesOnlyOutput(t *testing.T) {
	cfg := workload.TxnSize(workload.Small)
	cfg.Count = 3000
	txns := workload.GenerateTransactions(cfg)
	tree := Build(txns, int(0.01*float64(len(txns))))
	// The item with the most itemsets recurses deepest.
	var item int
	var out []ItemSet
	for _, it := range tree.FrequentItems() {
		var sets Sets
		if tree.MineItem(&sets, it); sets.n > len(out) {
			item, out = it, sets.Slice()
		}
	}
	ints := 0
	for _, s := range out {
		ints += len(s.Items)
	}
	if len(out) < 1000 {
		t.Fatalf("the richest item yields %d itemsets; the workload no longer recurses", len(out))
	}
	// The itemsets fill blocks of setBlock, whose list grows by doubling.
	// The miner is driven directly: under -race the pool drops Puts at random.
	blocks := len(out)/setBlock + 1
	budget := float64(blocks + bits.Len(uint(blocks)) + ints/slabInts + 2)
	m := new(miner)
	mine := func() {
		m.mine(tree, tree.ranks.get(item)-1, nil, 0)
		m.out = Sets{}
	}
	mine()
	if got := testing.AllocsPerRun(20, mine); got > budget {
		t.Errorf("mining item %d (%d itemsets) allocates %v times, want at most %v", item, len(out), got, budget)
	}
}

func TestItemSetKeyCanonical(t *testing.T) {
	a := ItemSet{Items: []int{1, 2, 3}}
	b := ItemSet{Items: []int{1, 2, 3}}
	c := ItemSet{Items: []int{1, 2, 4}}
	if a.Key() != b.Key() || a.Key() == c.Key() {
		t.Fatal("Key not canonical")
	}
}

// TestBuilderMatchesBuild: the staged build gives Build's tree whatever
// the order its independent parts run in — shards counted and rowed last
// first, groups filled last first.
func TestBuilderMatchesBuild(t *testing.T) {
	cfg := workload.TxnSize(workload.Small)
	cfg.Count = 3000
	for _, txns := range [][]workload.Transaction{smallDB(), workload.GenerateTransactions(cfg)} {
		minSup := max(2, len(txns)/300)
		cuts := []int{len(txns), len(txns) * 2 / 3, len(txns) / 3, 1, 0}
		sup := NewSupports()
		for i := 1; i < len(cuts); i++ {
			part := NewSupports()
			part.Count(txns[cuts[i]:cuts[i-1]])
			sup.Merge(&part)
		}
		b := NewBuilder(txns, &sup, minSup)
		for i := 1; i < len(cuts); i++ {
			b.Rows(cuts[i], cuts[i-1])
		}
		for g := b.Groups() - 1; g >= 0; g-- {
			b.Fill(g)
		}
		if got, want := b.Tree(), Build(txns, minSup); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d transactions: the staged tree differs from Build's", len(txns))
		}
	}
}
