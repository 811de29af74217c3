// Package fpm implements frequent-itemset mining for the freqmine
// benchmark: an FP-growth miner (Han et al.) structured, like PARSEC's
// freqmine, so that the mining of each frequent item's conditional pattern
// base is an independent task — the unit the parallel drivers distribute.
//
// Building trees is nearly all of the work, so a tree is a few flat slices
// indexed by item rank and node index, filled from rows sorted so that no
// insertion searches a node's children, and a miner reuses one tree per
// recursion depth, one buffer for the pattern base's paths and one store
// for the emitted itemsets' items: once its buffers have grown, mining
// allocates only the list it returns.
//
// A brute-force Apriori-style counter is included for use as a test oracle
// on small inputs.
package fpm

import (
	"slices"
	"sort"
	"sync"

	"repro/internal/workload"
)

// ItemSet is a sorted list of item ids with its support count.
type ItemSet struct {
	Items   []int
	Support int
}

// Key renders the itemset as a comparable string (items are sorted).
func (s ItemSet) Key() string {
	b := make([]byte, 0, len(s.Items)*3)
	for _, it := range s.Items {
		b = append(b, byte(it>>16), byte(it>>8), byte(it))
	}
	return string(b)
}

// node is an FP-tree node, addressed by its index in the tree's arena.
// Index 0 is the root, so a next of 0 ends a chain and a parent of 0 is the
// root.
type node struct {
	rank   int32 // the node's item, by its rank in the tree
	count  int32
	parent int32
	next   int32 // next node of the same rank: the header-table chain
}

// Tree is an FP-tree with its header table. Items are ranked by descending
// support in the tree, ties by ascending rank in the tree they were mined
// from (by item id in the base tree): rows are inserted in rank order so
// frequent items share prefixes, and every per-item table is a slice
// indexed by rank. Every ranked item is frequent.
type Tree struct {
	items  []int   // rank -> item id
	counts []int   // rank -> support in this tree
	heads  []int32 // rank -> first node of the rank's chain
	nodes  []node  // nodes[0] is the root
	minSup int
	ranks  itemTable // item id -> rank+1, 0 if not frequent; the base tree only, for MineItem
}

// itemTable maps item ids to int32s, zero when unset: a slice for the small
// non-negative ids generated items have, a map for any other. Build looks
// an id up for every item of every transaction, twice: on freqmine's M
// database (2 vCPUs, go1.24) Build takes 43–49 ms with the slice and
// 72–76 ms with every id in the map.
type itemTable struct {
	small []int32
	other map[int]int32
}

// smallItems bounds the ids itemTable keeps in its slice.
const smallItems = 1 << 16

func (x *itemTable) get(it int) int32 {
	if uint(it) < uint(len(x.small)) {
		return x.small[it]
	}
	return x.other[it]
}

func (x *itemTable) set(it int, v int32) {
	if uint(it) < uint(len(x.small)) {
		x.small[it] = v
	} else {
		x.other[it] = v
	}
}

// row is one path to insert: buf[start:end] of the buffer it was cut from,
// ascending ranks, with its count.
type row struct {
	start, end int32
	count      int
}

// resize returns s with length n, reusing its memory when it is large enough.
func resize[T any](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}

// reset empties t for n ranks, keeping its memory. The caller fills items.
func (t *Tree) reset(n, minSup int) {
	t.items = resize(t.items, n)
	t.counts = resize(t.counts, n)
	t.heads = resize(t.heads, n)
	clear(t.counts)
	clear(t.heads)
	t.nodes = append(t.nodes[:0], node{})
	t.minSup = minSup
}

// Build constructs the FP-tree over the database with the given absolute
// minimum support: it counts the items, ranks them and fills one tree with
// every transaction's row, in one pass each.
func Build(txns []workload.Transaction, minSup int) *Tree {
	sup := NewSupports()
	sup.Count(txns)
	b := NewBuilder(txns, &sup, minSup)
	b.Rows(0, len(txns))
	t, occurrences := b.t, 0
	for _, r := range b.rows {
		occurrences += int(r.end - r.start)
	}
	t.nodes = slices.Grow(t.nodes, occurrences) // each occurrence makes at most one node
	m := miners.Get().(*miner)
	m.fill(t, b.buf, b.rows)
	miners.Put(m)
	return t
}

// Supports counts items' supports, the first pass of a build. The counts
// of disjoint parts of a database merge into the whole's.
type Supports struct{ ids itemTable }

// NewSupports returns an empty count.
func NewSupports() Supports {
	return Supports{itemTable{small: make([]int32, smallItems), other: map[int]int32{}}}
}

// Count adds the items of txns.
func (s *Supports) Count(txns []workload.Transaction) {
	for _, t := range txns {
		for _, it := range t {
			s.ids.set(it, s.ids.get(it)+1)
		}
	}
}

// Merge adds o's counts to s's.
func (s *Supports) Merge(o *Supports) {
	for it, c := range o.ids.small {
		s.ids.small[it] += c
	}
	for it, c := range o.ids.other {
		s.ids.other[it] += c
	}
}

// rank returns the empty tree over s's frequent items, ranked by
// descending support, ties by ascending id for determinism. s's table
// becomes the tree's rank table.
func (s *Supports) rank(minSup int) *Tree {
	ids := s.ids
	var frequent []int
	for it, c := range ids.small {
		if c > 0 && int(c) >= minSup {
			frequent = append(frequent, it)
		}
	}
	for it, c := range ids.other {
		if int(c) >= minSup {
			frequent = append(frequent, it)
		}
	}
	sort.Slice(frequent, func(i, j int) bool {
		a, b := ids.get(frequent[i]), ids.get(frequent[j])
		if a != b {
			return a > b
		}
		return frequent[i] < frequent[j]
	})
	clear(ids.small)
	clear(ids.other)
	for r, it := range frequent {
		ids.set(it, int32(r)+1)
	}
	t := &Tree{ranks: ids}
	t.reset(len(frequent), minSup)
	copy(t.items, frequent)
	return t
}

// Builder makes the tree Build makes in stages whose parts are
// independent, for a parallel driver: Rows over shards of the
// transactions, then Fill over the groups of rows that share a first rank,
// then Tree. Rows are inserted in lexicographic order, so a group's rows
// share no node with any other group's: each group is a subtree of the
// root, and the groups follow each other in rank order. Tree joins the
// subtrees in that order, renumbering their nodes and chaining each rank's
// header list from one subtree to the next, which gives Build's tree node
// for node.
type Builder struct {
	txns   []workload.Transaction
	t      *Tree
	buf    []int32 // the rows' ranks: transaction i's from rows[i].start on
	rows   []row   // by transaction; by first rank once grouped
	groups []int32 // group g is rows[groups[g]:groups[g+1]]
	subs   []*Tree // by group
}

// NewBuilder ranks the items sup counted over txns, as Build does, and
// places each transaction's row. It takes sup's table over.
func NewBuilder(txns []workload.Transaction, sup *Supports, minSup int) *Builder {
	b := &Builder{txns: txns, t: sup.rank(minSup), rows: make([]row, len(txns))}
	at := 0
	for i, txn := range txns {
		b.rows[i].start = int32(at)
		at += len(txn)
	}
	b.buf = make([]int32, at)
	return b
}

// Rows writes the rows of transactions [lo, hi): the ranks of each one's
// frequent items, ascending.
func (b *Builder) Rows(lo, hi int) {
	ranks := &b.t.ranks
	for i := lo; i < hi; i++ {
		r := &b.rows[i]
		end := r.start
		for _, it := range b.txns[i] {
			if q := ranks.get(it); q > 0 {
				b.buf[end] = q - 1
				end++
			}
		}
		slices.Sort(b.buf[r.start:end])
		r.end, r.count = end, 1
	}
}

// Groups orders the rows by first rank, drops the empty ones, and returns
// how many groups Fill takes.
func (b *Builder) Groups() int {
	at := make([]int32, len(b.t.items)+1) // at[q+1]: rows whose first rank is q
	for _, r := range b.rows {
		if r.end > r.start {
			at[b.buf[r.start]+1]++
		}
	}
	b.groups = b.groups[:0]
	for q := range len(b.t.items) {
		if at[q+1] > 0 {
			b.groups = append(b.groups, at[q])
		}
		at[q+1] += at[q]
	}
	b.groups = append(b.groups, at[len(at)-1])
	grouped := make([]row, at[len(at)-1])
	for _, r := range b.rows {
		if r.end > r.start {
			q := b.buf[r.start]
			grouped[at[q]] = r
			at[q]++
		}
	}
	b.rows = grouped
	b.subs = make([]*Tree, len(b.groups)-1)
	return len(b.subs)
}

// Fill inserts group g's rows into a subtree of their own.
func (b *Builder) Fill(g int) {
	rows := b.rows[b.groups[g]:b.groups[g+1]]
	occurrences := 0
	for _, r := range rows {
		occurrences += int(r.end - r.start)
	}
	sub := new(Tree)
	sub.reset(len(b.t.items), b.t.minSup)
	sub.nodes = slices.Grow(sub.nodes, occurrences)
	m := miners.Get().(*miner)
	m.fill(sub, b.buf, rows)
	miners.Put(m)
	b.subs[g] = sub
}

// Tree joins the filled subtrees, in rank order, into the builder's tree.
// Subtree node i > 0 becomes node base+i, base being the nodes before it
// less its root; a chain's end in a subtree links to the rank's head so
// far, since fill prepends each new node to its rank's chain.
func (b *Builder) Tree() *Tree {
	t, n := b.t, 1
	for _, sub := range b.subs {
		n += len(sub.nodes) - 1
	}
	t.nodes = slices.Grow(t.nodes, n-1)
	for _, sub := range b.subs {
		base := int32(len(t.nodes)) - 1
		for _, x := range sub.nodes[1:] {
			if x.parent != 0 {
				x.parent += base
			}
			if x.next != 0 {
				x.next += base
			} else {
				x.next = t.heads[x.rank]
			}
			t.nodes = append(t.nodes, x)
		}
		for q, h := range sub.heads {
			if h != 0 {
				t.heads[q] = h + base
				t.counts[q] += sub.counts[q]
			}
		}
	}
	b.subs = nil
	return t
}

// FrequentItems returns the frequent items of this tree in mining order
// (least-frequent first, the order FP-growth peels items). This is the task
// list the parallel drivers distribute.
func (t *Tree) FrequentItems() []int {
	items := slices.Clone(t.items)
	slices.Reverse(items)
	return items
}

// MineItem adds to dst every frequent itemset that ends (in frequency
// order) at the given item: the item's conditional pattern base is
// extracted and mined recursively. MineItem calls on distinct items touch
// disjoint conditional trees and may run concurrently as long as the base
// tree is read-only and each has its own dst.
func (t *Tree) MineItem(dst *Sets, item int) {
	r := t.ranks.get(item) - 1
	if r < 0 {
		return
	}
	m := miners.Get().(*miner)
	m.out = *dst
	m.mine(t, r, nil, 0)
	*dst = m.done()
}

// MineAll mines the complete set of frequent itemsets sequentially.
func (t *Tree) MineAll() []ItemSet {
	m := miners.Get().(*miner)
	for r := len(t.items) - 1; r >= 0; r-- {
		m.mine(t, int32(r), nil, 0)
	}
	out := m.done()
	return out.Slice()
}

// Sets collects itemsets in blocks of setBlock, so that adding one never
// copies those before it, and collections join by their block lists.
type Sets struct {
	blocks [][]ItemSet
	n      int
}

// setBlock is how many itemsets one block of a Sets holds.
const setBlock = 4096

func (s *Sets) add(x ItemSet) {
	if k := len(s.blocks); k == 0 || len(s.blocks[k-1]) == setBlock {
		s.blocks = append(s.blocks, make([]ItemSet, 0, setBlock))
	}
	b := &s.blocks[len(s.blocks)-1]
	*b = append(*b, x)
	s.n++
}

// Join moves o's itemsets to the end of s.
func (s *Sets) Join(o *Sets) {
	s.blocks = append(s.blocks, o.blocks...)
	s.n += o.n
	*o = Sets{}
}

// Slice copies s's itemsets, in order, into a slice of exactly their
// number.
func (s *Sets) Slice() []ItemSet {
	out := make([]ItemSet, 0, s.n)
	for _, b := range s.blocks {
		out = append(out, b...)
	}
	return out
}

// miners recycles miners between mining tasks, so a task starts with the
// buffers an earlier one grew.
var miners = sync.Pool{New: func() any { return new(miner) }}

// slabInts is how many items one block of the itemset store holds.
const slabInts = 4096

// miner is the state of one mining task: the buffers it reuses and the
// itemsets it has found.
type miner struct {
	conds []*Tree  // the conditional tree built at each recursion depth
	path  []int32  // the pattern base's prefix paths, end to end
	rows  []row    // the paths in path
	stack []int32  // fill: the nodes of the row before
	cnt   []int    // rank in the mined tree -> support within the pattern base
	remap []int32  // rank in the mined tree -> rank in the conditional tree, or -1
	keys  []uint64 // the conditional tree's ranking: ^support<<32 | rank in the mined tree
	slab  []int    // the store emitted itemsets' items are cut from
	out   Sets
}

// done returns the itemsets found and puts m back in the pool.
func (m *miner) done() Sets {
	out := m.out
	m.out = Sets{}
	miners.Put(m)
	return out
}

// fill inserts rows, cut from buf, into the empty tree t. Sorted
// lexicographically, a row shares with the tree exactly the prefix it
// shares with the row before it, so every node past that prefix is new and
// no insertion searches a node's children.
func (m *miner) fill(t *Tree, buf []int32, rows []row) {
	slices.SortFunc(rows, func(a, b row) int {
		return slices.Compare(buf[a.start:a.end], buf[b.start:b.end])
	})
	var prev []int32
	stack := m.stack[:0] // stack[i]: the node of prev[i]
	for _, r := range rows {
		path := buf[r.start:r.end]
		k := 0
		for k < len(path) && k < len(prev) && path[k] == prev[k] {
			k++
		}
		stack = stack[:k]
		for _, q := range path[k:] {
			parent := int32(0)
			if len(stack) > 0 {
				parent = stack[len(stack)-1]
			}
			n := int32(len(t.nodes))
			t.nodes = append(t.nodes, node{rank: q, parent: parent, next: t.heads[q]})
			t.heads[q] = n
			stack = append(stack, n)
		}
		for i, q := range path {
			t.nodes[stack[i]].count += int32(r.count)
			t.counts[q] += r.count
		}
		prev = path
	}
	m.stack = stack
}

// mine emits suffix ∪ {the item of rank r} with its support in t, then mines
// r's conditional tree, built in m.conds[depth], one rank at a time.
func (m *miner) mine(t *Tree, r int32, suffix []int, depth int) {
	itemset := m.emit(suffix, t.items[r], t.counts[r])
	if depth == len(m.conds) {
		m.conds = append(m.conds, new(Tree))
	}
	cond := m.conds[depth]
	if !m.conditional(t, r, cond) {
		return
	}
	for q := len(cond.items) - 1; q >= 0; q-- {
		m.mine(cond, int32(q), itemset, depth+1)
	}
}

// emit records suffix ∪ {item} with its support and returns its items, cut
// from the miner's store: sorted, and capped so that no append reaches a
// neighbour. suffix is sorted and does not hold item.
func (m *miner) emit(suffix []int, item, support int) []int {
	n := len(suffix) + 1
	if cap(m.slab)-len(m.slab) < n {
		m.slab = make([]int, 0, max(slabInts, n))
	}
	at := len(m.slab)
	m.slab = m.slab[:at+n]
	s := m.slab[at : at+n : at+n]
	i := 0
	for ; i < len(suffix) && suffix[i] < item; i++ {
		s[i] = suffix[i]
	}
	s[i] = item
	copy(s[i+1:], suffix[i:])
	m.out.add(ItemSet{Items: s, Support: support})
	return s
}

// conditional builds in cond the conditional FP-tree of rank r's pattern
// base — the prefix path of every node of rank r, weighted by that node's
// count — and reports whether it has any frequent item. A prefix path
// holds only ranks below r, so per-rank scratch is r long.
func (m *miner) conditional(t *Tree, r int32, cond *Tree) bool {
	cnt := resize(m.cnt, int(r))
	clear(cnt)
	path, rows := m.path[:0], m.rows[:0]
	for n := t.heads[r]; n != 0; n = t.nodes[n].next {
		c, start := int(t.nodes[n].count), len(path)
		for p := t.nodes[n].parent; p != 0; p = t.nodes[p].parent {
			q := t.nodes[p].rank
			path = append(path, q)
			cnt[q] += c
		}
		if len(path) > start {
			rows = append(rows, row{int32(start), int32(len(path)), c})
		}
	}
	m.cnt, m.path, m.rows = cnt, path, rows
	keys := m.keys[:0]
	for q, c := range cnt {
		if c >= t.minSup {
			keys = append(keys, uint64(^uint32(c))<<32|uint64(q))
		}
	}
	m.keys = keys
	if len(keys) == 0 {
		return false
	}
	slices.Sort(keys)
	cond.reset(len(keys), t.minSup)
	remap := resize(m.remap, int(r))
	for q := range remap {
		remap[q] = -1
	}
	for i, k := range keys {
		q := int32(uint32(k))
		remap[q] = int32(i)
		cond.items[i] = t.items[q]
	}
	m.remap = remap
	// Rewrite each path in place as its frequent items' conditional ranks,
	// ascending: the kept items are a subsequence, so no write overtakes
	// the read.
	for i := range rows {
		w := rows[i].start
		for _, q := range path[rows[i].start:rows[i].end] {
			if x := remap[q]; x >= 0 {
				path[w] = x
				w++
			}
		}
		rows[i].end = w
		slices.Sort(path[rows[i].start:w])
	}
	m.fill(cond, path, rows)
	return true
}

// BruteForce enumerates frequent itemsets by counting all subsets up to
// maxLen over the database — exponential, for test oracles only.
func BruteForce(txns []workload.Transaction, minSup, maxLen int) []ItemSet {
	counts := map[string]int{}
	sets := map[string][]int{}
	var rec func(txn []int, start int, cur []int)
	rec = func(txn []int, start int, cur []int) {
		if len(cur) > 0 {
			is := ItemSet{Items: append([]int{}, cur...)}
			k := is.Key()
			counts[k]++
			sets[k] = is.Items
		}
		if len(cur) == maxLen {
			return
		}
		for i := start; i < len(txn); i++ {
			rec(txn, i+1, append(cur, txn[i]))
		}
	}
	for _, t := range txns {
		row := append([]int{}, t...)
		sort.Ints(row)
		rec(row, 0, nil)
	}
	var out []ItemSet
	for k, c := range counts {
		if c >= minSup {
			out = append(out, ItemSet{Items: sets[k], Support: c})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	return out
}

// LessItems compares two sorted item lists lexicographically without
// allocating (ItemSet.Key would build two strings per comparison).
func LessItems(a, b []int) bool {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// SortItemSets orders itemsets canonically for comparison.
func SortItemSets(s []ItemSet) {
	sort.Slice(s, func(i, j int) bool { return LessItems(s[i].Items, s[j].Items) })
}
