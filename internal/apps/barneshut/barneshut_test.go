package barneshut

import (
	"math"
	"testing"

	"repro/internal/workload"
)

func smallInput() *Input {
	cfg := workload.NBodyConfig{Seed: 13, Bodies: 800, Steps: 3}
	gen := workload.GenerateBodies(cfg)
	in := &Input{Steps: cfg.Steps, Bodies: make([]Body, len(gen))}
	for i, g := range gen {
		in.Bodies[i] = Body{
			Pos:  Vec3{X: g.PX, Y: g.PY, Z: g.PZ},
			Vel:  Vec3{X: g.VX, Y: g.VY, Z: g.VZ},
			Mass: g.Mass,
		}
	}
	return in
}

func bodiesIdentical(t *testing.T, got, want []Body, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bodies, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].Pos != want[i].Pos || got[i].Vel != want[i].Vel {
			t.Fatalf("%s: body %d diverged:\n got %+v\nwant %+v", label, i, got[i], want[i])
		}
	}
}

func TestSeqMovesBodies(t *testing.T) {
	in := smallInput()
	out := RunSeq(in)
	moved := 0
	for i := range out.Bodies {
		if out.Bodies[i].Pos != in.Bodies[i].Pos {
			moved++
		}
		if math.IsNaN(out.Bodies[i].Pos.X) {
			t.Fatalf("body %d NaN", i)
		}
	}
	if moved < len(in.Bodies)/2 {
		t.Fatalf("only %d bodies moved", moved)
	}
}

func TestSeqDoesNotMutateInput(t *testing.T) {
	in := smallInput()
	before := append([]Body(nil), in.Bodies...)
	RunSeq(in)
	bodiesIdentical(t, in.Bodies, before, "input")
}

// Per-body force accumulation order is the deterministic tree traversal
// order, identical in all three implementations, so outputs must be
// bit-identical — a stronger determinism result than tolerance comparison.
func TestCPMatchesSeqBitExact(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, workers := range []int{1, 3, 8} {
		got := RunCP(in, workers)
		bodiesIdentical(t, got.Bodies, want.Bodies, "cp")
	}
}

func TestSSMatchesSeqBitExact(t *testing.T) {
	in := smallInput()
	want := RunSeq(in)
	for _, delegates := range []int{1, 4, 8} {
		got, st := RunSS(in, delegates)
		bodiesIdentical(t, got.Bodies, want.Bodies, "ss")
		if st.Epochs != uint64(in.Steps) {
			t.Errorf("delegates=%d: %d epochs, want %d", delegates, st.Epochs, in.Steps)
		}
	}
}

func TestMomentumApproximatelyConserved(t *testing.T) {
	in := smallInput()
	momentum := func(bodies []Body) Vec3 {
		var p Vec3
		for i := range bodies {
			p = p.Add(bodies[i].Vel.Scale(bodies[i].Mass))
		}
		return p
	}
	before := momentum(in.Bodies)
	after := momentum(RunSeq(in).Bodies)
	// Barnes-Hut forces are not exactly pairwise-symmetric, so momentum
	// drifts slightly; it must stay small relative to the system scale.
	drift := after.Sub(before)
	scale := math.Sqrt(before.Norm2()) + 1
	if math.Sqrt(drift.Norm2()) > 0.05*scale {
		t.Fatalf("momentum drift %v too large (scale %f)", drift, scale)
	}
}

func TestLoadSizes(t *testing.T) {
	in := Load(workload.Small)
	cfg := workload.NBodySize(workload.Small)
	if len(in.Bodies) != cfg.Bodies || in.Steps != cfg.Steps {
		t.Fatalf("Load(S) = %d bodies / %d steps", len(in.Bodies), in.Steps)
	}
}
