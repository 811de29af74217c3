package barneshut

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/workload"
)

func makeBodies(seed int64, n int) []*Body {
	gen := workload.GenerateBodies(workload.NBodyConfig{Seed: seed, Bodies: n})
	bodies := make([]*Body, n)
	for i, g := range gen {
		bodies[i] = &Body{
			Pos:  Vec3{g.PX, g.PY, g.PZ},
			Vel:  Vec3{g.VX, g.VY, g.VZ},
			Mass: g.Mass,
		}
	}
	return bodies
}

func TestVecOps(t *testing.T) {
	a, b := Vec3{1, 2, 3}, Vec3{4, 5, 6}
	if a.Add(b) != (Vec3{5, 7, 9}) || b.Sub(a) != (Vec3{3, 3, 3}) {
		t.Fatal("Add/Sub wrong")
	}
	if a.Scale(2) != (Vec3{2, 4, 6}) || a.Norm2() != 14 {
		t.Fatal("Scale/Norm2 wrong")
	}
}

func TestTreeHoldsAllBodies(t *testing.T) {
	bodies := makeBodies(1, 2000)
	root := BuildTree(bodies)
	if got := root.Count(); got != 2000 {
		t.Fatalf("tree holds %d bodies, want 2000", got)
	}
}

func TestTreeMassConservation(t *testing.T) {
	bodies := makeBodies(2, 1000)
	root := BuildTree(bodies)
	var want float64
	for _, b := range bodies {
		want += b.Mass
	}
	if math.Abs(root.Mass-want) > 1e-6*want {
		t.Fatalf("tree mass %f, want %f", root.Mass, want)
	}
	// COM matches direct computation.
	var com Vec3
	for _, b := range bodies {
		com = com.Add(b.Pos.Scale(b.Mass))
	}
	com = com.Scale(1 / want)
	if d := com.Sub(root.COM).Norm2(); d > 1e-9 {
		t.Fatalf("COM off by %e", d)
	}
}

func TestCoincidentBodies(t *testing.T) {
	p := Vec3{1, 1, 1}
	bodies := []*Body{
		{Pos: p, Mass: 2},
		{Pos: p, Mass: 3},
		{Pos: Vec3{5, 5, 5}, Mass: 1},
	}
	root := BuildTree(bodies)
	if root.Count() != 3 {
		t.Fatalf("count = %d, want 3", root.Count())
	}
	if math.Abs(root.Mass-6) > 1e-12 {
		t.Fatalf("mass = %f, want 6", root.Mass)
	}
	// Force on the far body must see the combined mass; force between
	// coincident bodies must exclude self.
	f := root.Force(bodies[2])
	if f.Norm2() == 0 {
		t.Fatal("no force on far body")
	}
}

func TestForceApproximatesBruteForce(t *testing.T) {
	bodies := makeBodies(3, 800)
	root := BuildTree(bodies)
	r := rand.New(rand.NewSource(4))
	var relErrSum float64
	samples := 50
	for s := 0; s < samples; s++ {
		i := r.Intn(len(bodies))
		approx := root.Force(bodies[i])
		exact := BruteForce(bodies, i)
		diff := approx.Sub(exact)
		relErr := math.Sqrt(diff.Norm2() / (exact.Norm2() + 1e-12))
		relErrSum += relErr
	}
	if mean := relErrSum / float64(samples); mean > 0.05 {
		t.Fatalf("mean relative force error %.3f > 5%%", mean)
	}
}

func TestIntegrateMovesBody(t *testing.T) {
	b := &Body{Pos: Vec3{0, 0, 0}, Vel: Vec3{1, 0, 0}, Mass: 1}
	Integrate(b, Vec3{0, 1, 0})
	if b.Pos.X <= 0 || b.Pos.Y <= 0 {
		t.Fatalf("body did not move: %+v", b.Pos)
	}
	if b.Acc != (Vec3{0, 1, 0}) {
		t.Fatal("acceleration not recorded")
	}
}

func TestEmptyAndSingle(t *testing.T) {
	if BuildTree(nil) != nil {
		t.Fatal("empty tree should be nil")
	}
	one := []*Body{{Pos: Vec3{1, 2, 3}, Mass: 5}}
	root := BuildTree(one)
	if root.Count() != 1 || root.Mass != 5 {
		t.Fatal("single-body tree wrong")
	}
	if f := root.Force(one[0]); f.Norm2() != 0 {
		t.Fatal("self-force must be zero")
	}
}

func TestEnergyBounded(t *testing.T) {
	// A few leapfrog steps should not blow the system up (soften2 > 0).
	bodies := makeBodies(5, 300)
	for step := 0; step < 5; step++ {
		root := BuildTree(bodies)
		accs := make([]Vec3, len(bodies))
		for i, b := range bodies {
			accs[i] = root.Force(b)
		}
		for i, b := range bodies {
			Integrate(b, accs[i])
		}
	}
	for i, b := range bodies {
		if math.IsNaN(b.Pos.X) || math.IsInf(b.Pos.X, 0) {
			t.Fatalf("body %d diverged: %+v", i, b.Pos)
		}
	}
}
