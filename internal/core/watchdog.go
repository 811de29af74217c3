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
// report instead of a CI timeout. Progress is published per drain run, not
// per operation (progressSum), so the bound must exceed the longest run:
// Config.Watchdog has the sizing rule.

// waitDone blocks until done closes. With the watchdog enabled it
// periodically snapshots the pool-wide progress sum; two consecutive
// identical snapshots a full bound apart with the wait still pending mean
// the runtime is wedged.
//
// With help set — a barrier, not under Recursive — the program context
// works while it waits. For the first helpAfter of a barrier it parks on
// done as it always did: the park hands its P to a delegate it has just
// woken, and an epoch of sub-microsecond operations ends inside it. Then it
// runs its inbox, asks the most occupied delegate for work and parks on
// done, the inbox's wake channel (delegate.notify's sleep-flag handshake)
// and the watchdog tick, asking again whenever the inbox runs dry. A reclaim
// passes help=false: a set lent across a reclaim would outlive the wait.
func (rt *Runtime) waitDone(done <-chan struct{}, help bool) {
	wd := rt.cfg.Watchdog
	if wd <= 0 && !help {
		<-done
		return
	}
	var tick <-chan time.Time
	var timer *time.Timer
	var last uint64
	if wd > 0 {
		timer = time.NewTimer(wd)
		defer timer.Stop()
		tick, last = timer.C, rt.progressSum()
	}
	if help && !rt.helping {
		rt.helpTimer.Reset(helpAfter)
		select {
		case <-done:
			rt.helpTimer.Stop()
			return
		case <-rt.helpTimer.C:
			rt.helping = true
		}
	}
	p := rt.prog
	for {
		if help {
			if p.anyPending() {
				rt.runInbox()
			}
			rt.askForWork()
			p.sleep.Store(delegateSleeping)
			if p.anyPending() {
				p.sleep.Store(delegateAwake)
				continue
			}
		}
		select {
		case <-done:
			p.sleep.Store(delegateAwake)
			return
		case <-p.wake: // only ever signalled while a helping wait is parked
			p.sleep.Store(delegateAwake)
		case <-tick:
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

// progressSum folds every published counter into one number that
// advances whenever any context does anything observable: executed
// messages (faulted operations included — containment counts them) plus
// batched-drain deliveries — the program context's own from its inbox too —
// which move as soon as a run is popped.
func (rt *Runtime) progressSum() uint64 {
	sum := rt.execSum() + rt.prog.drainedOps.Load()
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

// ProgramLaneCap returns how many invocations a delegate's program lane
// holds: how far the program context runs ahead of one delegate before the
// blocking push parks it. Zero in Sequential mode, which has no lanes.
func (rt *Runtime) ProgramLaneCap() int {
	if len(rt.delegates) == 0 {
		return 0
	}
	return rt.delegates[0].lanes[ProgramContext].Cap()
}

// DumpSchedState renders the scheduler ledgers — the watchdog's wedge
// report, exported so a draining server can attach the same dump to its
// straggler log when a drain deadline expires: the pool-wide sent/executed
// totals and the program context's inbox, then per delegate its
// pending-lane bitmask, its shed-request word and every lane's sent/exec
// position. Reads only atomics; safe from any goroutine.
func (rt *Runtime) DumpSchedState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d/%d delegates active, sent=%d executed=%d\n",
		rt.active.Load(), len(rt.delegates), rt.sentSum(), rt.execSum())
	if p := rt.prog; p != nil {
		fmt.Fprintf(&b, "  program context: helped=%d inbox=%d\n", p.drainedOps.Load(), p.occupancy())
	}
	for _, d := range rt.delegates {
		fmt.Fprintf(&b, "  delegate %d: pending=", d.id)
		for w := len(d.pending) - 1; w >= 0; w-- {
			fmt.Fprintf(&b, "%016x", d.pending[w].Load())
		}
		fmt.Fprintf(&b, " shedreq=%d lanes[p:sent/exec]:", d.shedReq.Load())
		for p := range d.exec {
			if sent, exec := d.sent[p].n.Load(), d.exec[p].Load(); sent != 0 || exec != 0 {
				fmt.Fprintf(&b, " %d:%d/%d", p, sent, exec)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
