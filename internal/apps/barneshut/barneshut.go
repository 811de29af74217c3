// Package barneshut reproduces the Lonestar barnes-hut benchmark
// (Table 2): an N-body simulation where each time step builds an octree
// and computes approximate forces against it. Per step, the tree build is
// sequential and the force/integrate phase is data parallel over the
// bodies with the tree read-only — the structure all three implementations
// share, so their outputs are bit-identical (per-body force accumulation
// order is the order of the force loop's walk, the same in all three).
//
// The tree is one slice of cells and body occupants in depth-first
// preorder, each node holding the end of its subtree's run, so Force is a
// single loop. A run builds it into arenas kept across steps. That reuse
// is §2.2's alternating partition: the tree is rewritten only between
// isolation epochs, after the barrier retired every reader of the last one.
//
// The force phase visits the bodies in that preorder too, not by index:
// bodies close in preorder are close in space, so consecutive walks open
// the same cells. A body's own sum does not depend on when it is visited,
// so the outputs are those of an index-order visit, bit for bit.
package barneshut

import (
	"repro/internal/workload"
)

// Input is the initial body set plus the step count.
type Input struct {
	Bodies []Body
	Steps  int
}

// Output is the final body states.
type Output struct {
	Bodies []Body
}

// Load generates the input for a size class.
func Load(size workload.SizeClass) *Input {
	cfg := workload.NBodySize(size)
	gen := workload.GenerateBodies(cfg)
	bodies := make([]Body, len(gen))
	for i, g := range gen {
		bodies[i] = Body{
			Pos:  Vec3{X: g.PX, Y: g.PY, Z: g.PZ},
			Vel:  Vec3{X: g.VX, Y: g.VY, Z: g.VZ},
			Mass: g.Mass,
		}
	}
	return &Input{Bodies: bodies, Steps: cfg.Steps}
}

// clone copies the input bodies so repeated runs are independent, and
// returns pointers for tree construction.
func clone(in *Input) ([]Body, []*Body) {
	bodies := append([]Body(nil), in.Bodies...)
	ptrs := make([]*Body, len(bodies))
	for i := range bodies {
		ptrs[i] = &bodies[i]
	}
	return bodies, ptrs
}

// forceRange computes accelerations for the bodies at positions [lo, hi)
// of the tree's preorder, storing into accs by body index.
func forceRange(root *Tree, ptrs []*Body, accs []Vec3, lo, hi int) {
	for _, i := range root.span(lo, hi) {
		accs[i] = root.Force(ptrs[i])
	}
}

// integrateRange advances the bodies at positions [lo, hi) of the tree's
// preorder.
func integrateRange(root *Tree, ptrs []*Body, accs []Vec3, lo, hi int) {
	for _, i := range root.span(lo, hi) {
		Integrate(ptrs[i], accs[i])
	}
}
