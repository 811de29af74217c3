package barneshut

// The Barnes–Hut N-body kernel: octree construction, multipole-approximate
// force evaluation and leapfrog integration. The structure follows the
// Lonestar benchmark the paper ports: per step, a sequential tree build
// followed by a parallel force/update phase over the bodies, with the tree
// read-only during the parallel phase.

import "math"

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

// leafEntry is a leaf occupant: a snapshot of the body's position and mass
// taken at build time, plus the body's identity for self-exclusion. Storing
// copies makes the finished tree fully immutable, so force evaluation can
// overlap with integration of other bodies without reading updated state.
type leafEntry struct {
	Pos  Vec3
	Mass float64
	Ref  *Body
}

// Node is an octree cell: either a leaf holding one body (or several
// coincident ones) or an internal node with up to eight children, carrying
// total mass and center of mass.
type Node struct {
	Center   Vec3    // geometric center of the cell
	Half     float64 // half the cell edge length
	Mass     float64
	COM      Vec3        // center of mass (valid after finalize)
	Entries  []leafEntry // leaf occupants; len > 1 only for coincident positions
	Children [8]*Node
	leaf     bool
}

// BuildTree constructs the octree over the bodies. The tree is immutable
// after construction (read-only in parallel phases).
func BuildTree(bodies []*Body) *Node {
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
	root := &Node{Center: center, Half: half, leaf: true}
	for _, b := range bodies {
		root.insert(leafEntry{Pos: b.Pos, Mass: b.Mass, Ref: b})
	}
	root.finalize()
	return root
}

// octant returns the child index for a position within the cell.
func (n *Node) octant(p Vec3) int {
	i := 0
	if p.X >= n.Center.X {
		i |= 1
	}
	if p.Y >= n.Center.Y {
		i |= 2
	}
	if p.Z >= n.Center.Z {
		i |= 4
	}
	return i
}

func (n *Node) childCell(i int) *Node {
	h := n.Half / 2
	c := n.Center
	if i&1 != 0 {
		c.X += h
	} else {
		c.X -= h
	}
	if i&2 != 0 {
		c.Y += h
	} else {
		c.Y -= h
	}
	if i&4 != 0 {
		c.Z += h
	} else {
		c.Z -= h
	}
	return &Node{Center: c, Half: h, leaf: true}
}

func (n *Node) insert(e leafEntry) {
	if n.leaf {
		if len(n.Entries) == 0 {
			n.Entries = append(n.Entries, e)
			return
		}
		// Coincident positions (or a vanishing cell) would split forever;
		// keep them together in the leaf.
		if n.Entries[0].Pos == e.Pos || n.Half < 1e-12 {
			n.Entries = append(n.Entries, e)
			return
		}
		// Split: push the resident entries down, then fall through to
		// insert e.
		old := n.Entries
		n.Entries = nil
		n.leaf = false
		for _, oe := range old {
			oi := n.octant(oe.Pos)
			if n.Children[oi] == nil {
				n.Children[oi] = n.childCell(oi)
			}
			n.Children[oi].insert(oe)
		}
	}
	i := n.octant(e.Pos)
	if n.Children[i] == nil {
		n.Children[i] = n.childCell(i)
	}
	n.Children[i].insert(e)
}

// finalize computes mass and center of mass bottom-up.
func (n *Node) finalize() {
	if n.leaf {
		for _, e := range n.Entries {
			n.Mass += e.Mass
		}
		if len(n.Entries) > 0 {
			n.COM = n.Entries[0].Pos
		}
		return
	}
	var com Vec3
	for _, c := range n.Children {
		if c == nil {
			continue
		}
		c.finalize()
		n.Mass += c.Mass
		com = com.Add(c.COM.Scale(c.Mass))
	}
	if n.Mass > 0 {
		n.COM = com.Scale(1 / n.Mass)
	}
}

// Force computes the Barnes-Hut approximate gravitational acceleration on a
// body. The tree is only read; Force on different bodies may run
// concurrently.
func (n *Node) Force(b *Body) Vec3 {
	if n == nil || n.Mass == 0 {
		return Vec3{}
	}
	if n.leaf {
		var sum Vec3
		for _, e := range n.Entries {
			if e.Ref != b {
				sum = sum.Add(accel(b.Pos, e.Pos, e.Mass))
			}
		}
		return sum
	}
	d := n.COM.Sub(b.Pos)
	dist2 := d.Norm2() + Soften2
	size := 2 * n.Half
	if size*size < Theta*Theta*dist2 {
		return accel(b.Pos, n.COM, n.Mass) // cell is far: use its multipole
	}
	var sum Vec3
	for _, c := range n.Children {
		if c != nil {
			sum = sum.Add(c.Force(b))
		}
	}
	return sum
}

func accel(at, from Vec3, mass float64) Vec3 {
	d := from.Sub(at)
	dist2 := d.Norm2() + Soften2
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
		sum = sum.Add(accel(bodies[i].Pos, o.Pos, o.Mass))
	}
	return sum
}

// Count returns the number of bodies in the subtree (test helper).
func (n *Node) Count() int {
	if n == nil {
		return 0
	}
	if n.leaf {
		return len(n.Entries)
	}
	total := 0
	for _, c := range n.Children {
		total += c.Count()
	}
	return total
}
