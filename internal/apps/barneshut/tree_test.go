package barneshut

import (
	"math"
	"testing"
	"unsafe"

	"repro/internal/workload"
)

// TestTreePreorderLayout: every run nests inside its parent's, every body
// is exactly one occupant, and a cell's mass is its occupants' sum.
func TestTreePreorderLayout(t *testing.T) {
	bodies := makeBodies(1, 2000)
	tr := BuildTree(bodies)
	nodes := tr.nodes
	if int(nodes[0].Skip) != len(nodes) {
		t.Fatalf("root run ends at %d, want %d", nodes[0].Skip, len(nodes))
	}
	type occupant struct {
		pos  Vec3
		mass float64
	}
	want := make(map[occupant]int)
	for _, b := range bodies {
		want[occupant{b.Pos, b.Mass}]++
	}
	// ends[k] is where the k-th enclosing run ends.
	ends := []int32{nodes[0].Skip}
	for i := range nodes {
		n := &nodes[i]
		for ends[len(ends)-1] <= int32(i) {
			ends = ends[:len(ends)-1]
		}
		if n.Skip <= int32(i) || n.Skip > ends[len(ends)-1] {
			t.Fatalf("node %d: Skip %d outside (%d, %d]", i, n.Skip, i, ends[len(ends)-1])
		}
		if n.Open == 0 {
			if n.Skip != int32(i)+1 {
				t.Fatalf("occupant %d has a run of %d", i, n.Skip-int32(i))
			}
			k := occupant{n.COM, n.Mass}
			if want[k] == 0 {
				t.Fatalf("occupant %d matches no body, or one already seen", i)
			}
			want[k]--
			continue
		}
		var mass float64
		for j := i + 1; j < int(n.Skip); j++ {
			if nodes[j].Open == 0 {
				mass += nodes[j].Mass
			}
		}
		if math.Abs(n.Mass-mass) > 1e-12*mass {
			t.Fatalf("cell %d: mass %v, its occupants sum to %v", i, n.Mass, mass)
		}
		ends = append(ends, n.Skip)
	}
	for k, left := range want {
		if left != 0 {
			t.Fatalf("body at %v is %d occupants short", k.pos, left)
		}
	}
}

// nestedForce walks node i's run recursively, summing each opened cell's
// children into a subtotal before adding it to the parent's: the same
// terms as Force, in a nested order.
func nestedForce(nodes []node, i int32, b *Body) Vec3 {
	n := &nodes[i]
	d := n.COM.Sub(b.Pos)
	if n.Open < Theta*Theta*(d.Norm2()+Soften2) {
		return accel(d, d.Norm2()+Soften2, n.Mass)
	}
	var sum Vec3
	for j := i + 1; j < n.Skip; j = nodes[j].Skip {
		sum = sum.Add(nestedForce(nodes, j, b))
	}
	return sum
}

func TestForceMatchesNestedSum(t *testing.T) {
	bodies := makeBodies(3, 800)
	tr := BuildTree(bodies)
	for i, b := range bodies {
		got, want := tr.Force(b), nestedForce(tr.nodes, 0, b)
		if diff := got.Sub(want).Norm2(); diff > 1e-24*want.Norm2() {
			t.Fatalf("body %d: loop %v, nested %v", i, got, want)
		}
	}
}

func TestForceZeroAlloc(t *testing.T) {
	bodies := makeBodies(3, 800)
	tr := BuildTree(bodies)
	if n := testing.AllocsPerRun(10, func() { tr.Force(bodies[17]) }); n != 0 {
		t.Fatalf("Force allocates %v times, want 0", n)
	}
}

func TestBuildReusesArena(t *testing.T) {
	bodies := makeBodies(3, 800)
	var bd builder
	bd.build(bodies)
	if n := testing.AllocsPerRun(10, func() { bd.build(bodies) }); n != 0 {
		t.Fatalf("a rebuild on a grown builder allocates %v times, want 0", n)
	}
}

// TestTreeNodeSize: the walk reads one node per step, so a node must fit
// one cache line.
func TestTreeNodeSize(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got > 64 {
		t.Fatalf("node is %d bytes, want at most 64", got)
	}
}

// TestRunSeqAllocsPerStep: the arenas grow in the first step and are
// reused after it, so a run's allocations do not grow with its steps.
func TestRunSeqAllocsPerStep(t *testing.T) {
	in := Load(workload.Small)
	allocs := func(steps int) float64 {
		short := &Input{Bodies: in.Bodies, Steps: steps}
		return testing.AllocsPerRun(1, func() { RunSeq(short) })
	}
	one, all := allocs(1), allocs(in.Steps)
	if all-one > float64(in.Steps-1) {
		t.Fatalf("RunSeq allocates %v times in 1 step, %v in %d", one, all, in.Steps)
	}
}

// TestCoincidentForceExact: a body's own occupant, and one coinciding with
// it, add exactly +0, so the force on a coincident body is the far body's
// term alone, bit for bit.
func TestCoincidentForceExact(t *testing.T) {
	p, far := Vec3{1, 1, 1}, Vec3{5, 5, 5}
	bodies := []*Body{{Pos: p, Mass: 2}, {Pos: p, Mass: 3}, {Pos: far, Mass: 1}}
	tr := BuildTree(bodies)
	for _, b := range bodies[:2] {
		d := far.Sub(p)
		if got, want := tr.Force(b), accel(d, d.Norm2()+Soften2, 1); got != want {
			t.Fatalf("force %v, want %v", got, want)
		}
	}
}

// TestOrderIsPermutation: at every step of a run the preorder lists every
// body exactly once, coincident bodies included, and its k-th entry is the
// body the k-th occupant was taken from.
func TestOrderIsPermutation(t *testing.T) {
	bodies := makeBodies(6, 500)
	for i := 0; i < 30; i++ { // coincident pairs, and triples from i < 10
		b := *bodies[i%20]
		bodies = append(bodies, &b)
	}
	var bd builder
	accs := make([]Vec3, len(bodies))
	for step := 0; step < 5; step++ {
		tr := bd.build(bodies)
		if len(tr.order) != len(bodies) {
			t.Fatalf("step %d: order lists %d bodies, want %d", step, len(tr.order), len(bodies))
		}
		seen := make([]bool, len(bodies))
		k := 0
		for i := range tr.nodes {
			if tr.nodes[i].Open != 0 {
				continue
			}
			j := tr.order[k]
			if seen[j] {
				t.Fatalf("step %d: body %d listed twice", step, j)
			}
			seen[j] = true
			if n := &tr.nodes[i]; n.COM != bodies[j].Pos || n.Mass != bodies[j].Mass {
				t.Fatalf("step %d: occupant %d is not body %d", step, k, j)
			}
			k++
		}
		forceRange(tr, bodies, accs, 0, len(bodies))
		integrateRange(tr, bodies, accs, 0, len(bodies))
	}
}

// forceSink keeps BenchmarkForceM's calls from being optimized away.
var forceSink Vec3

// BenchmarkForceM: one body's force against the first step's tree at M.
func BenchmarkForceM(b *testing.B) {
	_, bodies := clone(Load(workload.Medium))
	tr := BuildTree(bodies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forceSink = tr.Force(bodies[i%len(bodies)])
	}
}

// BenchmarkForceRangeM: one step's whole force phase at M against the
// first step's tree, in the order a run visits the bodies.
func BenchmarkForceRangeM(b *testing.B) {
	_, bodies := clone(Load(workload.Medium))
	tr := BuildTree(bodies)
	accs := make([]Vec3, len(bodies))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		forceRange(tr, bodies, accs, 0, len(bodies))
	}
}

// BenchmarkBuildTreeM: one step's build at M on a builder the earlier
// steps grew, as in a run.
func BenchmarkBuildTreeM(b *testing.B) {
	_, bodies := clone(Load(workload.Medium))
	var bd builder
	bd.build(bodies)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.build(bodies)
	}
}
