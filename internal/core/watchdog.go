package core

import (
	"fmt"
	"strings"
	"time"
)

// The program context's one wait, and the watchdog on it. Everything the
// program context waits for — a reclaim (SyncContext), a barrier
// (EndIsolation, Sleep, RunParallel, Terminate), a parking delegate, room
// on a full program lane — is a predicate over the
// ledger or a lane (settled), and one function waits for all of them:
// re-check the predicate, run the inbox when the wait helps, arm context
// 0's sleep flag, re-check, park on its wake channel. A delegate wakes it
// through the same sleep-flag handshake a producer uses on a delegate
// (rouse) when it serves a marker, frees slots on the lane the program
// context waits on, or sheds into its inbox.
//
// Before fault containment a dead or wedged delegate turned a wait into a
// silent hang; with containment a wedge should be impossible, and the
// watchdog is the enforcement of that claim in debug/Checked builds: if no
// delegate publishes any progress for a full Config.Watchdog bound while
// the program context waits, panic with a dump of what it waits for and of
// per-delegate pending lanes and ledger positions, so the liveness bug
// arrives as an actionable report instead of a CI timeout. Progress is
// published per drain run, not per operation (progressSum), so the bound
// must exceed the longest run: Config.Watchdog has the sizing rule.

// wait blocks the program context until settled(room) holds: room on
// room's program lane when room is set, else every marker recorded in
// marks served.
//
// With help set — a barrier, not under Recursive — the program context
// works while it waits. For the first helpAfter it only parks: the park
// hands its P to a delegate it has just woken, and an epoch of
// sub-microsecond operations ends inside it. Then it runs its inbox, asks
// the most occupied delegate for work and parks again, asking whenever the
// inbox wakes it. A reclaim passes help=false: a set lent across a reclaim
// would outlive the wait.
//
// The patient start and the watchdog share the runtime's one timer: the
// first deadline of a wait with help set ends the patient start, every
// other one is a watchdog tick, and two progress sums a full bound apart
// that are equal mean the runtime is wedged.
func (rt *Runtime) wait(room *delegate, help bool) {
	if rt.settled(room) {
		return
	}
	if room != nil {
		rt.roomOn.Store(int32(room.id))
	}
	p, wd := rt.prog, rt.cfg.Watchdog
	var tick <-chan time.Time
	var last uint64
	asking := false
	switch {
	case help:
		rt.timer.Reset(helpAfter)
		tick = rt.timer.C
	case wd > 0:
		rt.timer.Reset(wd)
		tick, last = rt.timer.C, rt.progressSum()
	}
	for {
		if asking {
			if p.anyPending() {
				rt.runInbox()
			}
			rt.askForWork()
		}
		p.sleep.Store(delegateSleeping)
		if rt.settled(room) {
			p.sleep.Store(delegateAwake)
			break
		}
		if asking && p.anyPending() {
			p.sleep.Store(delegateAwake)
			continue
		}
		if tick == nil {
			<-p.wake
		} else {
			select {
			case <-p.wake:
			case <-tick:
				switch cur := rt.progressSum(); {
				case help && !asking: // the patient start is over
					asking, tick = true, nil
					if wd > 0 {
						last, tick = cur, rt.timer.C
						rt.timer.Reset(wd)
					}
				case cur == last:
					panic(fmt.Sprintf(
						"prometheus: watchdog: no delegate progress for %v while the program context waits\n%s",
						wd, rt.DumpSchedState()))
				default:
					last = cur
					rt.timer.Reset(wd)
				}
			}
		}
		p.sleep.Store(delegateAwake)
		if rt.settled(room) { // most wakes are the one awaited
			break
		}
	}
	if tick != nil {
		rt.timer.Stop()
	}
	if room != nil {
		rt.roomOn.Store(0)
	}
}

// settled is the wait's predicate. With room set, it is room on room's
// program lane. Otherwise it is every marker in marks served — the
// delegate's exec on the program lane has reached the marker's position,
// which execSpan publishes before it wakes the program context — and each
// marker found served is retired.
func (rt *Runtime) settled(room *delegate) bool {
	if room != nil {
		return !room.lanes[ProgramContext].Full()
	}
	for i := range rt.marks {
		m := &rt.marks[i]
		if pos := m.Load(); pos != 0 {
			if rt.delegates[i].exec[ProgramContext].Load() < pos {
				return false
			}
			m.Store(0)
		}
	}
	return true
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

// QueueDepths appends each delegate context's current backlog —
// messages routed to it that have not finished executing, queued and
// in-flight alike — to dst and returns the extended slice, one entry per
// delegate in context order. Reads only the ledger's atomic counters, so it
// is safe from any goroutine and allocation-free when dst has capacity: the
// serving tier samples it on every metrics scrape.
func (rt *Runtime) QueueDepths(dst []uint64) []uint64 {
	for _, d := range rt.delegates {
		dst = append(dst, d.occupancy())
	}
	return dst
}

// ProgramLaneCap returns how many invocations a delegate's program lane
// holds: how far the program context runs ahead of one delegate before it
// waits for room. Zero in Sequential mode, which has no lanes.
func (rt *Runtime) ProgramLaneCap() int {
	if len(rt.delegates) == 0 {
		return 0
	}
	return rt.delegates[0].lanes[ProgramContext].Cap()
}

// DumpSchedState renders the scheduler ledgers — the watchdog's wedge
// report, exported so a draining server can attach the same dump to its
// straggler log when a drain deadline expires: the pool-wide sent/executed
// totals, the program context's inbox and what it waits for (waiting=room
// on delegate d's program lane, or its markers not yet served as
// delegate@position, or nothing), then per delegate its pending-lane
// bitmask, its shed-request word and every lane's sent/exec position.
// Reads only atomics; safe from any goroutine.
func (rt *Runtime) DumpSchedState() string {
	var b strings.Builder
	fmt.Fprintf(&b, "engine: %d delegates, sent=%d executed=%d\n",
		len(rt.delegates), rt.sentSum(), rt.execSum())
	if p := rt.prog; p != nil {
		fmt.Fprintf(&b, "  program context: helped=%d inbox=%d waiting=", p.drainedOps.Load(), p.occupancy())
		if id := rt.roomOn.Load(); id != 0 {
			fmt.Fprintf(&b, "room on delegate %d", id)
		} else {
			sep := "markers"
			for i := range rt.marks {
				if pos := rt.marks[i].Load(); pos > rt.delegates[i].exec[ProgramContext].Load() {
					fmt.Fprintf(&b, "%s %d@%d", sep, i+1, pos)
					sep = ""
				}
			}
			if sep != "" {
				b.WriteString("nothing")
			}
		}
		b.WriteByte('\n')
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
