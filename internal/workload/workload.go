// Package workload generates the synthetic inputs for the eight benchmarks
// of the paper's Table 2. The original suites (PARSEC, Phoenix, Lonestar,
// NU-MineBench) ship multi-hundred-megabyte proprietary inputs; these
// generators produce inputs with the same structural properties (size
// classes, skew, redundancy) from fixed seeds, so every run — and every
// equivalence test against the sequential implementation — is deterministic.
package workload

import "math/rand"

// SizeClass selects the input scale, mirroring Table 2's S/M/L columns.
// Paper inputs are scaled down uniformly so the full evaluation runs on one
// machine in minutes; the S:M:L ratios follow the paper where practical.
type SizeClass int

const (
	Small SizeClass = iota
	Medium
	Large
)

func (s SizeClass) String() string {
	switch s {
	case Small:
		return "S"
	case Medium:
		return "M"
	case Large:
		return "L"
	default:
		return "?"
	}
}

// SizeClasses lists all classes in ascending order.
var SizeClasses = []SizeClass{Small, Medium, Large}

// ParseSize converts "S"/"M"/"L" to a SizeClass.
func ParseSize(s string) (SizeClass, bool) {
	switch s {
	case "S", "s", "small":
		return Small, true
	case "M", "m", "medium":
		return Medium, true
	case "L", "l", "large":
		return Large, true
	}
	return Small, false
}

// Range is the half-open index range [Lo, Hi).
type Range struct{ Lo, Hi int }

// Split cuts [0, n) into min(parts, n) contiguous, nearly equal, non-empty
// ranges, in order: n < parts gives n singletons, and n = 0 none.
func Split(n, parts int) []Range {
	parts = min(parts, n)
	rs := make([]Range, parts)
	for c := range rs {
		rs[c] = Range{n * c / parts, n * (c + 1) / parts}
	}
	return rs
}

// ChunksPerContext is how many ranges Chunks cuts per executing context.
// At size M an operation then takes about 0.05–1.2 ms: short enough that a
// delegate answers the barrier's request for work within a fraction of the
// epoch, and each context still runs dozens of operations per epoch.
const ChunksPerContext = 64

// Chunks is the one cut of the data-parallel programs: it splits [0, n)
// into ChunksPerContext ranges per executing context (the delegates and
// the program context, which takes work over at a barrier).
func Chunks(n, contexts int) []Range { return Split(n, ChunksPerContext*contexts) }

// newRand returns the deterministic source all generators draw from.
func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// pick returns S/M/L-specific values.
func pick[T any](size SizeClass, s, m, l T) T {
	switch size {
	case Small:
		return s
	case Medium:
		return m
	default:
		return l
	}
}
