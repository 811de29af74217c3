package prometheus

import "repro/internal/core"

// StealAt overrides the victim occupancy at which a steal fires, through
// core.Config.StealThreshold — the seam the determinism suites use to force
// steals on tiny programs (1, 2). Not a public Option.
func StealAt(n int) Option { return func(c *core.Config) { c.StealThreshold = n } }

// NoSteal is a StealAt threshold no backlog reaches: WithStealing(),
// StealAt(NoSteal) runs first-touch placement with the rebalancer idle.
const NoSteal = 1 << 30

// QueueCap sets each lane's ring capacity through core.Config.QueueCapacity
// — the seam the determinism and stress suites use to make full program
// lanes and spills common on tiny programs. Not a public Option.
func QueueCap(n int) Option { return func(c *core.Config) { c.QueueCapacity = n } }
