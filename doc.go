// Package prometheus implements the serialization-sets parallel execution
// model of Allen, Sridharan & Sohi, "Serialization Sets: A Dynamic
// Dependence-Based Parallel Execution Model" (PPoPP 2009), as a Go library.
//
// # Model
//
// A program using serialization sets is written as an ordinary sequential
// program. Execution is divided into aggregation epochs (plain sequential
// execution, the default) and isolation epochs (opened with
// Runtime.BeginIsolation, closed with Runtime.EndIsolation). During an
// isolation epoch the program partitions its data into disjoint domains:
//
//   - read-only data (ReadOnly[T]) may be read by any operation;
//   - privately-writable data (Writable[T]) may be read and written only by
//     its current owner;
//   - reducible data (Reducible[T]) accumulates into per-context views that
//     are folded together on first use in the following aggregation epoch.
//
// Potentially independent operations on writable data are delegated
// (Writable.Delegate). A serializer — a small piece of code run at the
// delegation point — maps each operation to a serialization set.
// Operations in the same set execute in program order, one at a time, on
// the context that owns the set; operations in different sets may execute
// concurrently. Because
// every operation has a place in a single logical order, parallel execution
// is deterministic: there are no data races, and deadlock, livelock and
// priority inversion cannot occur.
//
// # Correspondence with the paper's C++ API (Table 1)
//
//	initialize()                 -> Init(opts...)
//	terminate()                  -> Runtime.Terminate()
//	sleep()                      -> Runtime.Sleep()
//	begin_isolation()            -> Runtime.BeginIsolation()
//	end_isolation()              -> Runtime.EndIsolation()
//	read_only<T>::call           -> ReadOnly[T].Call / Get
//	reducible<T>::call           -> Reducible[T].Update / View / Result
//	writable<T,S>::call          -> Writable[T].Call (private) / CallRO (read-only)
//	writable<T,S>::delegate      -> Writable[T].Delegate (serializer S)
//	writable<T,S>::delegate(ss)  -> Writable[T].DelegateTo(set, ...) (external serializer)
//	writable<T,S>::doall         -> DoAll(rt, objs, fn)
//
// The paper's predefined serializers map to Sequence (instance number),
// Object (address-like scrambled identity) and Null (external serializer
// supplied at the delegation site); internal serializers are arbitrary
// functions of the wrapped object (UseSerializer / NewWritableSer).
//
// Delegated methods must not return values (restructure to store results in
// the object and read them after synchronization), mirroring the paper's
// void-return restriction. In Go the delegated operation is a closure
// receiving (*Ctx, *T); the Ctx identifies the executing context and is how
// reducible views are addressed.
//
// # Debugging
//
// Sequential() builds a runtime in the paper's debug mode: every delegation
// runs inline in the program goroutine, in program order, while serializers
// and all dynamic checks still execute. Checked() enables the dynamic error
// detection of §3.3: serializer-consistency tagging and the
// read-only/private state machine, which panic with *Error on violation.
//
// # The delegation engine
//
// The whole bet of the model is that delegation overhead is small enough
// for fine-grained operations to win (paper §4–5), so the hot path — a
// steady-state Delegate with Checked and Trace off — performs zero heap
// allocations and O(1) work. There is one engine, and every configuration
// runs on it (internal/core/delegate.go):
//
//   - Lanes. Every delegate owns one inbound lane per producer context: one
//     lane — the paper's private communication queue — when only the
//     program context delegates, one per context under Recursive. A lane is
//     a bounded SPSC ring of sequence-stamped value slots (internal/spsc,
//     after FastForward, Giacomoni et al. PPoPP 2008) backed by an
//     unbounded spill list that engages only on overflow. Invocation
//     records travel by value: no per-operation allocation, no GC pressure,
//     and producer and consumer never touch each other's cursor in steady
//     state. The program context, which no delegate can be waiting on,
//     waits for room on a full lane and gets bounded-queue backpressure.
//     Without WithStealing its lane on each delegate is 16 rings deep
//     (4,096 slots at the default), every other lane one ring, so it
//     reaches a barrier with a whole epoch of coarse operations queued
//     rather than waiting for room; with it, one ring, so that sets go
//     quiescent while their owner is backed up and can be stolen. A
//     delegating delegate never blocks — it spills — because it may be
//     delegating to a set it itself owns, or around a cycle. Spill nodes
//     are recycled through a per-lane freelist backed by a pool shared
//     across the runtime's lanes, so sustained spilling settles at zero
//     steady-state allocations too.
//
//   - Trampolines. Wrappers (Writable, ReadOnly, Reducible, Ctx.Delegate)
//     dispatch through a static per-type trampoline plus two payload words
//     (the wrapper pointer and the callback's funcval pointer) instead of
//     constructing closures; the callback you pass is invoked on the
//     executing context without any per-call allocation. Alloc-regression
//     tests (alloc_test.go) pin every path at exactly 0 allocs/op.
//
//   - Wake-up. Each delegate keeps a pending-lane bitmask: a producer
//     publishes work with one conditional atomic OR plus a load-only wake
//     check, and an idle delegate inspects O(1) words before it parks.
//
//   - Batched drain. A delegate claims its pending lanes with one Swap and
//     drains each in runs of up to 64 records executed back to back,
//     publishing its progress once per run rather than once per operation.
//     A backlogged delegate therefore drains at memcpy-plus-call speed,
//     which also keeps the producer out of its ring-full slow path.
//
//   - One ledger. Producer p counts every message it pushes into delegate
//     d's lane (a padded single-writer counter) and d publishes, per lane,
//     how many it has finished. Lanes are FIFO, so "executed >= position"
//     proves that message and everything before it ran. Sent minus executed
//     is a delegate's occupancy — queued plus in-flight work — and the one
//     number behind first-touch placement, stealing and
//     Runtime.QueueDepths. The EndIsolation barrier is the only place the
//     two sides are summed: it sends each delegate a synchronization object
//     and repeats until the totals agree across a quiet round (under
//     Recursive executing an operation may enqueue more work, so one drain
//     round is never proof of completion).
//
//   - Reclaim. Writable.Call during an isolation epoch reclaims the object
//     with the paper's synchronization object: one message down the owner's
//     lane, skipped when that delegate has been sent nothing since its last
//     synchronization. Under Recursive a single lane cannot witness nested
//     work, so the reclaim is the quiescence barrier. The object carries
//     nothing: it is its lane position, served once the delegate's executed
//     counter reaches it. Every wait of the program context — for such
//     markers, or for room on a full program lane — re-checks its
//     predicate, arms a sleep flag and parks on the program context's own
//     wake channel, which a delegate signals when it serves a marker or
//     frees slots on that lane: a reclaim allocates nothing.
//
// # Placement and load balancing
//
// Under StaticMod (the paper's policy) set s runs on delegate s mod D + 1,
// D the pool size, which is fixed for the runtime's life. Under either
// policy the program context runs operations only while it helps at a
// barrier.
//
// The LeastLoaded policy places a serialization set at its first
// delegation of the epoch on the delegate with the smallest occupancy —
// never the delegating delegate's own, which would turn the set's
// operations into self-delegations their producer may be blocked waiting
// on — and the set then stays sticky to that delegate: per-set program
// order depends on it. When dependence chains have very uneven lengths,
// that one-shot choice can strand most of an epoch's work on one delegate
// while the others idle. WithStealing selects LeastLoaded and adds an
// occupancy-aware rebalancer (internal/core/owners.go) with one trigger
// rule and two constants: when a set's owner has four or more outstanding
// operations and the set itself is quiescent (every operation previously
// delegated to it has finished executing — a safe handoff boundary), the
// next delegation hands the whole set to the least-occupied delegate,
// provided that delegate is idle or at most a quarter as loaded as the
// victim. Four is above transient two-or-three-deep pipelining and early
// enough to matter inside the one 256-slot ring a stealing runtime's
// program lane is; a quarter keeps a balanced pool sticky. Neither is
// tunable (BenchmarkRecursiveSkewed is the evidence for them), and a
// one-delegate pool never steals: there is no peer.
//
// Whole sets — never individual invocations — are the steal unit. Moving a
// single queued invocation would let two contexts interleave one set's
// operations and break the model's ordering guarantee; moving a whole set
// at a quiescent boundary preserves it by construction: everything
// delegated to the set before the handoff has completed on the old owner
// before anything after it is enqueued on the new one. Determinism is
// unchanged — only placement (which delegate runs a set), never order
// (which operations run and in what sequence per set), responds to load.
//
// The quiescence check reads the ledger. Every set has one producer
// context per isolation epoch, and the owner table records the lane
// position of the set's newest operation; the set may move only when the
// owner's executed counter for that producer's lane covers it — one
// comparison. The handoff takes no lock and needs no acknowledgment from
// the victim: its executed publishes ARE the acknowledgment. Since only the
// set's single producer routes operations to it, the migration is a
// single-writer update observed through atomics.
//
// Under Recursive only leaf sets move. The context a set's operations run
// on is the producer of the nested sets they delegate to, so moving a set
// whose operations delegate would give those nested sets a second producer
// mid-epoch, with no order between the two lanes. The first nested
// delegation an operation of a set issues therefore marks the set's entry
// (the drain loop stamps the executing set on its delegate), and a marked
// set stays on its owner for the rest of the epoch — a leaf set stolen
// earlier is pinned on the thief from its first nested delegation on. The
// mark is written before the operation's executed publish, and the
// rebalancer checks quiescence first, so the publish that proves a set
// quiescent also shows its mark. The cost is one plain stamp per executed
// operation and one table lookup per nested delegation under stealing,
// zero allocations. A set never lands on its own producer's delegate, where
// its operations would be self-delegations the producer may block on:
// first touch and the choice of thief both exclude that delegate, and
// producing sets do not move. The producer discipline under dynamic
// placement is sharper than one context per set: a nested set must receive
// its delegations from the operations of a single producing set (or from
// the program context) per epoch — one producing SET, not merely one
// context — or stealing one parent while it is still a leaf, after which
// it delegates, hands the nested set a second producer. Checked mode panics
// on any second producer context in an epoch, under every policy, however
// quiescent the set. Stats reports Steals.
//
// The program context works while it waits. Every program delegates an
// epoch far faster than the pool executes it, and a program lane deep
// enough for the whole epoch lets it get to the barrier (EndIsolation,
// Sleep, RunParallel, Terminate) with the epoch still queued, where it
// would sit parked on the delegates' markers — on a small machine, one of
// the CPUs. Instead, once a barrier has been open for 50µs (an epoch of
// tiny operations ends inside that, on the plain park it always was), it
// raises a one-word request on the most occupied delegate that still owes
// its marker. The delegate loads that word once per operation and answers
// at its next operation boundary: its marker is already behind everything
// the program sent, so it pops its lane empty, holds the complete
// remainder of the epoch, and deals its chains — whole sets' remaining
// operations, in order; RunParallel tasks one by one; a poisoned set never
// moves — alternately between itself and the program context's inbox, one
// lane per delegate, in order of first appearance: the chain its own next
// operation belongs to stays, the next goes. Dealing rather than cutting
// at the midpoint gives each side about half the work of an epoch ordered
// by cost (freqmine's items, the costliest at one end), where a cut would
// hand one side nearly all of it. The program context runs what it is
// dealt as context 0 through the very span the drain loop uses, asks again
// whenever the inbox runs dry, and the barrier closes when every marker is
// served and the inbox is empty. Order holds as it does under stealing:
// the unit is the whole set, it moves at an operation boundary, and its
// only producer — the program context — cannot route to it again before
// the barrier closes. Only barriers help: a reclaim (Writable.Call,
// SyncSet) and the wait for room on a full program lane only park — a set
// lent across a reclaim would outlive the wait — and never under
// Recursive, where other contexts may still produce into a lent set. An
// epoch longer than the program lane (4,096 operations per delegate at the
// default; 256 under WithStealing) still has the program context wait for
// room until its last lane's worth is queued; only that reaches the
// barrier to be split. The inbox lanes are as deep as the program lanes,
// so a hand-over does not spill. ContextFor and Delegate still name the
// set's owner: an operation ran there or, during a barrier, on context 0.
// Stats reports HelpedOps and Sheds.
//
// # Recursive delegation
//
// Recursive() permits the extension the paper names as future work (§4):
// delegated operations may delegate further operations via Ctx.Delegate,
// which is how divide-and-conquer programs (quicksort, FPM, Barnes-Hut)
// are expressed without fork/join scaffolding. It is a permission, not a
// second engine: it widens every delegate's lane set from one lane to one
// per context (D x (D+1) rings), makes a reclaim the quiescence barrier,
// and composes with either placement policy, with or without stealing.
//
// Per-set program order is preserved per producer — FIFO through ring and
// spill alike — and determinism requires each set to have one producer
// context per isolation epoch, which Checked() enforces under every
// policy. The engine keeps that rule itself: stealing moves only leaf sets,
// so a nested set's producer is fixed for the epoch and nested order stays
// a per-lane FIFO fact (under LeastLoaded, also one producing set per
// nested set; see above). Stats reports RecursiveOps (messages through the
// lanes, all producers) and Spills alongside the drain counters.
//
// Measuring. bash bench/run.sh is the ledger and the only performance
// gate: five workloads end to end against the bounds in BENCHMARK.json,
// per-layer rows with --workload W --trace 1. What CI enforces of the hot
// path is the exact 0 allocs/op tests. The Benchmark* functions are a
// developer's probe, read with go test -bench and benchstat:
//
//   - Fig 4 and Fig 5a on this host: the traced apps-m rows
//     apps.<app>.speedup, apps.hmean_speedup, apps.<app>.isolation_share.
//   - Fig 5b, Fig 6 and the policy / queue-capacity / kmeans ablations:
//     go test -run=NONE -bench 'Fig5b|Fig6|Ablation' .
//   - Delegation cost: BenchmarkDelegateOverhead, BenchmarkRecursiveOverhead,
//     BenchmarkSPSC, BenchmarkLane.
//   - Stealing under skew: BenchmarkRecursiveSkewed,
//     BenchmarkCoreDelegateSkewed.
//   - Per-context utilisation of one program: cmd/sstrace. WithTrace
//     records every executed operation on whichever context runs it — a
//     delegate or the program context helping at a barrier — and pool
//     tasks as set NoSet, at the one place they all pass; delegation
//     itself is the untraced path.
//
// # Fault containment
//
// A panic in a delegated operation does not kill the process and does not
// wedge a barrier, whichever context runs it: a delegate, or the program
// context executing a set it took over in a barrier (only Sequential()
// lets a panic propagate, as a debugger wants).
// All run invocations inside the same recover()-protected execution span;
// a recovered panic is recorded (value plus the stack of the original
// failure site) and the faulted operation is counted as executed, so
// everything the scheduling protocols read off the ledger — occupancy,
// per-lane coverage, barrier quiescence sums, the whole-set handoff proofs
// of the section above — keeps advancing and the goroutine stays alive.
//
// Determinism is preserved by set poisoning. The faulting operation's
// serialization set is poisoned for the remainder of the isolation epoch:
// every subsequent delegation to it is dropped-but-counted, so the set
// executes exactly its program-order prefix up to the faulting operation
// and nothing after — the same prefix on every run, because per-set
// program order is the model's invariant. Poisoned sets are never stolen
// or shed to the program context; the poison is written before the
// faulted operation's counters are published, so any context
// that proves the set quiescent has already observed it. Dropped
// operations never run at all — a fault mid-set also deterministically
// truncates the nested delegations its dropped successors would have
// issued. Poisoning clears at the next BeginIsolation; fault records
// persist for the runtime's lifetime.
//
// Faults surface as values, not crashes: Runtime.Err is the report, the
// errors.Join of one *PanicError per retained fault (set, context, epoch,
// recovered value and original stack), through which errors.Is and
// errors.As reach a panic value that was an error. Checked mode fails fast
// instead: a delegation to a poisoned set panics at the delegation site
// with the original stack.
// Stats reports Panics, PoisonedSets, and DroppedOps; tracing emits a
// TracePanic event per contained fault.
//
// One discipline falls on user code: an operation that spin-waits on the
// side effects of operations in OTHER sets can hang if those operations
// are dropped by poisoning — synchronize through the runtime (epoch
// barriers, SyncSet), which containment guarantees still close, rather
// than through ad-hoc waits on delegated effects. The watchdog
// (Config.Watchdog; on by default under Checked) watches every wait of the
// program context — a barrier, a reclaim, room on a full program lane —
// and turns any such hang, or an engine liveness bug, into a panic with a
// dump of what the program context waits for, per-delegate pending lanes
// and ledger positions after a configurable no-progress bound. Delegates
// publish progress once per drain run, so the bound must exceed the
// longest run, not merely the longest operation: up to 64
// back-to-back operations of one lane, and up to a full lane more on a
// delegate a barrier asked for work. The chaos-injection harness
// (internal/chaos) drives all of this under test: deterministic and
// seeded-probabilistic panics injected across every configuration,
// asserting survival, byte-identical poisoning points, and untouched
// sibling sets.
//
// The fault-free cost is one nil pointer load on the delegation path and
// one per drain run — all poison state is allocated lazily on the first
// contained panic, and the alloc gates pin the armed hot path at 0
// allocs/op.
//
// Fault records are retained in a bounded ring (the most recent 1024,
// core.DefaultFaultRecordBound), so contained panics cannot pin their
// captured stacks forever. Evicted records are counted in
// Stats.DroppedFaults; the Panics counter and the poisoning discipline are
// unaffected, and Err describes the most recent faults.
//
// # Serving tier
//
// internal/serve puts the model in front of HTTP traffic: each request's
// key hashes to a serialization set (StringSet) and its handler is
// delegated to that set, so requests for one key run in arrival order on
// one delegate at a time while different keys run across the pool. It
// contains its handlers' panics itself rather than through the engine:
// drop-but-count suits a batch program, but a request tier must answer the
// requests queued behind a fault, so the delegated operation recovers,
// poisons the key on its session for the epoch, and every later request
// for the key answers 500 with the fault instead of being dropped. The
// package comment there describes the design (the program context as a
// role, a job's life, faults, rotation as the repair loop, the robustness
// layer), and the note at the top of its durability.go the durable
// sessions. Its delegate pool is Config.Delegates, fixed for the server's
// life, like the paper's pool of delegate threads. cmd/ssserve/README.md
// covers running it and the load and crash drills.
package prometheus
