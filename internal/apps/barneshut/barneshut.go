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

// forceRange computes accelerations for bodies [lo, hi) against the tree,
// storing into accs.
func forceRange(root *Tree, ptrs []*Body, accs []Vec3, lo, hi int) {
	for i := lo; i < hi; i++ {
		accs[i] = root.Force(ptrs[i])
	}
}

// integrateRange advances bodies [lo, hi).
func integrateRange(ptrs []*Body, accs []Vec3, lo, hi int) {
	for i := lo; i < hi; i++ {
		Integrate(ptrs[i], accs[i])
	}
}
