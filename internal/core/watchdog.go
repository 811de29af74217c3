package core

import (
	"fmt"
	"strings"
	"time"
)

// Barrier watchdog. Every blocking synchronization the program context
// performs — SyncContext, barrier (EndIsolation, Sleep, RunParallel),
// Terminate — waits on a done channel only a delegate can close. Before
// fault containment a dead or wedged delegate turned that wait into a
// silent hang; with containment a wedge should be impossible, and the
// watchdog is the enforcement of that claim in debug/Checked builds: if no
// delegate publishes any progress for a full Config.Watchdog bound while a
// synchronization is outstanding, panic with a dump of per-delegate pending
// lanes and ledger positions so the liveness bug arrives as an actionable
// report instead of a CI timeout.

// waitDone blocks until done closes. With the watchdog enabled it
// periodically snapshots the pool-wide progress sum; two consecutive
// identical snapshots a full bound apart with the wait still pending mean
// the runtime is wedged.
func (rt *Runtime) waitDone(done <-chan struct{}) {
	wd := rt.cfg.Watchdog
	if wd <= 0 {
		<-done
		return
	}
	timer := time.NewTimer(wd)
	defer timer.Stop()
	last := rt.progressSum()
	for {
		select {
		case <-done:
			return
		case <-timer.C:
			cur := rt.progressSum()
			if cur == last {
				panic(fmt.Sprintf(
					"prometheus: watchdog: no delegate progress for %v while a synchronization is outstanding\n%s",
					wd, rt.DumpSchedState()))
			}
			last = cur
			timer.Reset(wd)
		}
	}
}

// progressSum folds every published delegate counter into one number that
// advances whenever any delegate does anything observable: executed
// messages (faulted operations included — containment counts them) plus
// batched-drain deliveries, which move as soon as a run is popped.
func (rt *Runtime) progressSum() uint64 {
	sum := rt.execSum()
	for _, d := range rt.delegates {
		sum += d.drainedOps.Load()
	}
	return sum
}

// QueueDepths appends each active delegate context's current backlog —
// messages routed to it that have not finished executing, queued and
// in-flight alike — to dst and returns the extended slice, one entry per
// delegate in context order. Reads only the ledger's atomic counters, so it
// is safe from any goroutine and allocation-free when dst has capacity: the
// serving tier samples it on every metrics scrape.
func (rt *Runtime) QueueDepths(dst []uint64) []uint64 {
	// Bound by the atomic active count, not capacity: reporting retired
	// delegates would skew the serving tier's occupancy averages, and the
	// atomic is the only pool-size read with a happens-before story for
	// arbitrary goroutines.
	for _, d := range rt.delegates[:int(rt.active.Load())] {
		dst = append(dst, d.occupancy())
	}
	return dst
}

// DumpSchedState renders the scheduler ledgers — the watchdog's wedge
// report, exported so a draining server can attach the same dump to its
// straggler log when a drain deadline expires: the pool-wide sent/executed
// totals, then per delegate its pending-lane bitmask and every lane's
// sent/exec position. Reads only atomics; safe from any goroutine.
func (rt *Runtime) DumpSchedState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d/%d delegates active, sent=%d executed=%d\n",
		rt.active.Load(), len(rt.delegates), rt.sentSum(), rt.execSum())
	for _, d := range rt.delegates {
		fmt.Fprintf(&b, "  delegate %d: pending=", d.id)
		for w := len(d.pending) - 1; w >= 0; w-- {
			fmt.Fprintf(&b, "%016x", d.pending[w].Load())
		}
		b.WriteString(" lanes[p:sent/exec]:")
		for p := range d.exec {
			if sent, exec := d.sent[p].n.Load(), d.exec[p].Load(); sent != 0 || exec != 0 {
				fmt.Fprintf(&b, " %d:%d/%d", p, sent, exec)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
