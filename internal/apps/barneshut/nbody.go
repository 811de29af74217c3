package barneshut

// The Barnes–Hut N-body kernel, after the Lonestar benchmark the paper
// ports: per step a sequential octree build, then a parallel force/update
// phase with the tree read-only. The build inserts body indices into an
// index-linked cell arena and writes it out as a flat preorder slice; the
// force walk is one loop over that slice. A run's builder keeps both
// arenas across its steps (the package doc says why that is safe).

import (
	"math"
	"slices"
)

// Vec3 is a 3-component vector.
type Vec3 struct{ X, Y, Z float64 }

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns v * s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Norm2 returns |v|^2.
func (v Vec3) Norm2() float64 { return v.X*v.X + v.Y*v.Y + v.Z*v.Z }

// Body is a point mass with state.
type Body struct {
	Pos, Vel, Acc Vec3
	Mass          float64
}

// Simulation parameters, matching typical Barnes-Hut settings.
const (
	Theta   = 0.5  // opening angle
	Dt      = 0.05 // time step
	Soften2 = 0.05 // softening epsilon^2, avoids singular close encounters
	G       = 1.0  // gravitational constant (natural units)
)

// node is an entry of a Tree's preorder slice: a cell, or an occupant (a
// snapshot of one body taken at build time, so the tree never reads a body
// being integrated). Node i's subtree is the run [i, Skip), and a cell's
// children follow it in octant order.
type node struct {
	COM  Vec3 // an occupant's position
	Mass float64
	Open float64 // (2·Half)² of a cell, 0 for an occupant
	Skip int32
}

// Tree is a finished octree, read-only in parallel phases.
type Tree struct {
	Mass  float64
	COM   Vec3
	nodes []node  // nodes[0] is the root cell
	order []int32 // the occupants' body indices, in preorder
}

// cell is a cell of the build arena. A child slot is 0 (empty), a child
// cell's index (> 0), or ^j for the chain of occupants headed by body j.
type cell struct {
	center Vec3
	half   float64
	kids   [8]int32
}

// builder owns the arenas a run rebuilds its tree in at every step. The
// Tree it returns aliases them until the next build.
type builder struct {
	cells []cell
	next  []int32 // chain links by body index; -1 ends a chain
	stack []int32 // emit's work list
	tree  Tree
}

// BuildTree constructs the octree over the bodies, on a builder of its own.
func BuildTree(bodies []*Body) *Tree { return new(builder).build(bodies) }

func (bd *builder) build(bodies []*Body) *Tree {
	if len(bodies) == 0 {
		return nil
	}
	// Bounding cube.
	min, max := bodies[0].Pos, bodies[0].Pos
	for _, b := range bodies[1:] {
		min.X = math.Min(min.X, b.Pos.X)
		min.Y = math.Min(min.Y, b.Pos.Y)
		min.Z = math.Min(min.Z, b.Pos.Z)
		max.X = math.Max(max.X, b.Pos.X)
		max.Y = math.Max(max.Y, b.Pos.Y)
		max.Z = math.Max(max.Z, b.Pos.Z)
	}
	center := min.Add(max).Scale(0.5)
	half := math.Max(max.X-min.X, math.Max(max.Y-min.Y, max.Z-min.Z))/2 + 1e-9
	bd.cells = append(bd.cells[:0], cell{center: center, half: half})
	bd.next = slices.Grow(bd.next[:0], len(bodies))[:len(bodies)]
	for i := range bodies {
		bd.insert(bodies, int32(i))
	}
	bd.emit(bodies)
	bd.tree.Mass, bd.tree.COM = bd.tree.nodes[0].Mass, bd.tree.nodes[0].COM
	return &bd.tree
}

// octant returns the child slot for a position within the cell.
func (c *cell) octant(p Vec3) int {
	i := 0
	if p.X >= c.center.X {
		i |= 1
	}
	if p.Y >= c.center.Y {
		i |= 2
	}
	if p.Z >= c.center.Z {
		i |= 4
	}
	return i
}

// insert descends from the root to the slot body i falls in. An empty slot
// starts a chain. A coincident body, or any in a cell too small to split,
// joins the resident chain: either would split forever. Otherwise a new
// cell takes the resident chain and the descent goes on into it.
func (bd *builder) insert(bodies []*Body, i int32) {
	p := bodies[i].Pos
	for c := int32(0); ; {
		o := bd.cells[c].octant(p)
		k := bd.cells[c].kids[o]
		switch {
		case k > 0:
			c = k
			continue
		case k == 0 || bodies[^k].Pos == p || bd.cells[c].half/2 < 1e-12:
			bd.next[i] = ^k // -1 for an empty slot
			bd.cells[c].kids[o] = ^i
			return
		}
		// Split: the new cell's center is c's, moved ±h along each axis by o's bits.
		h, sign := bd.cells[c].half/2, func(bit int) float64 { return float64(o>>bit&1)*2 - 1 }
		sub := cell{center: bd.cells[c].center.Add(Vec3{sign(0), sign(1), sign(2)}.Scale(h)), half: h}
		sub.kids[sub.octant(bodies[^k].Pos)] = k
		n := int32(len(bd.cells))
		bd.cells = append(bd.cells, sub)
		bd.cells[c].kids[o] = n
		c = n
	}
}

// closing marks a work-list entry that finishes the cell node at its low
// bits; other entries are a cell index (≥ 0) or an occupant chain (< 0).
const closing = 1 << 30

// emit writes the arena out as the preorder slice, in one depth-first walk:
// a cell's node is appended when the walk reaches it and finished (Skip,
// Mass, COM) when its run closes, after every node in the run, from its
// children in octant order. Each occupant's body index goes to order.
func (bd *builder) emit(bodies []*Body) {
	nodes, order := bd.tree.nodes[:0], bd.tree.order[:0]
	stack := append(bd.stack[:0], 0)
	for len(stack) > 0 {
		k := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		switch {
		case k < 0:
			for j := ^k; j >= 0; j = bd.next[j] {
				nodes = append(nodes, node{COM: bodies[j].Pos, Mass: bodies[j].Mass, Skip: int32(len(nodes)) + 1})
				order = append(order, j)
			}
		case k >= closing:
			n := &nodes[k-closing]
			n.Skip = int32(len(nodes))
			var com Vec3
			for j := k - closing + 1; j < n.Skip; j = nodes[j].Skip {
				n.Mass += nodes[j].Mass
				com = com.Add(nodes[j].COM.Scale(nodes[j].Mass))
			}
			if n.Mass > 0 {
				n.COM = com.Scale(1 / n.Mass)
			}
		default:
			c := &bd.cells[k]
			size := 2 * c.half
			stack = append(stack, int32(len(nodes))|closing)
			nodes = append(nodes, node{Open: size * size})
			for o := 7; o >= 0; o-- {
				if c.kids[o] != 0 {
					stack = append(stack, c.kids[o])
				}
			}
		}
	}
	bd.tree.nodes, bd.tree.order, bd.stack = nodes, order, stack
}

// Force computes the Barnes-Hut approximate gravitational acceleration on a
// body in one loop: a node far enough away (every occupant is) counts as a
// point mass and the walk skips its run; a near cell is stepped into. b's
// own occupant adds exactly +0 (d is zero), so it needs no test. Force on
// different bodies may run concurrently.
func (t *Tree) Force(b *Body) Vec3 {
	var sum Vec3
	if t == nil {
		return sum
	}
	p, nodes := b.Pos, t.nodes
	for i := int32(0); int(i) < len(nodes); {
		n := &nodes[i]
		d := n.COM.Sub(p)
		dist2 := d.Norm2() + Soften2
		if n.Open < Theta*Theta*dist2 {
			sum = sum.Add(accel(d, dist2, n.Mass))
			i = n.Skip
		} else {
			i++
		}
	}
	return sum
}

// span returns the body indices at positions [lo, hi) of the preorder; a
// nil tree holds none.
func (t *Tree) span(lo, hi int) []int32 {
	if t == nil {
		return nil
	}
	return t.order[lo:hi]
}

// accel is the acceleration toward a point mass at offset d, at the
// softened squared distance dist2 = |d|² + Soften2.
func accel(d Vec3, dist2, mass float64) Vec3 {
	inv := 1 / math.Sqrt(dist2)
	return d.Scale(G * mass * inv * inv * inv)
}

// Integrate advances a body one leapfrog step with the given acceleration.
func Integrate(b *Body, acc Vec3) {
	b.Acc = acc
	b.Vel = b.Vel.Add(acc.Scale(Dt))
	b.Pos = b.Pos.Add(b.Vel.Scale(Dt))
}

// BruteForce computes the exact O(N^2) acceleration on body i — the test
// oracle for the approximate tree force.
func BruteForce(bodies []*Body, i int) Vec3 {
	var sum Vec3
	for j, o := range bodies {
		if j == i {
			continue
		}
		d := o.Pos.Sub(bodies[i].Pos)
		sum = sum.Add(accel(d, d.Norm2()+Soften2, o.Mass))
	}
	return sum
}

// Count returns the number of bodies in the tree (test helper).
func (t *Tree) Count() int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.nodes {
		if t.nodes[i].Open == 0 {
			n++
		}
	}
	return n
}
