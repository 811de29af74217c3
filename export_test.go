package prometheus

import "repro/internal/core"

// StealAt overrides the victim occupancy at which a steal fires, through
// core.Config.StealThreshold — the seam the determinism suites use to force
// steals on tiny programs (1, 2). Not a public Option.
func StealAt(n int) Option { return func(c *core.Config) { c.StealThreshold = n } }

// NoSteal is a StealAt threshold no backlog reaches: WithStealing(),
// StealAt(NoSteal) runs first-touch placement with the rebalancer idle.
const NoSteal = 1 << 30
