//go:build !race

package serve

// raceEnabled reports whether the race detector is compiled in. The
// zero-allocation gates are skipped under -race: the race-mode sync.Pool
// drops a fraction of Puts on purpose, so a pooled job is not always there
// to reuse.
const raceEnabled = false
