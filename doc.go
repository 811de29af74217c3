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
// # Costs
//
// The whole bet of the model is that delegation overhead is small enough
// for fine-grained operations to win (paper §4–5), so the hot path — a
// steady-state Delegate with Checked and Trace off — performs zero heap
// allocations and O(1) work: the invocation record travels by value into
// the owner's lane, and the callback you pass runs on the executing
// context through a static per-type trampoline (tramp.go) without a
// per-call closure. Alloc-regression tests (alloc_test.go) pin every path
// at exactly 0 allocs/op. There is one engine, and every configuration
// runs on it; internal/core/delegate.go's header describes its lanes,
// wake-up, batched drain, ledger and the program context's inbox, and
// watchdog.go's its one wait.
//
// What a program sees of it is backpressure. The program context blocks
// when its lane to a delegate is full: 16 rings of 256 slots deep by
// default, so a whole epoch of coarse operations is queued before the
// barrier; one ring under WithStealing. A delegating delegate never blocks
// — it spills to an unbounded list — because it may be delegating to a set
// it itself owns, or around a cycle. Writable.Call during an isolation
// epoch reclaims the object with the paper's synchronization object: one
// message down the owner's lane, skipped when that delegate has been sent
// nothing since its last synchronization; under Recursive the reclaim is
// the quiescence barrier. Neither a reclaim nor a wait for room allocates.
//
// # Placement and load balancing
//
// Placement follows WithStealing alone. By default set s runs on delegate
// s mod D + 1, D the pool size, which is fixed for the runtime's life: the
// paper's own assignment (§4). WithStealing places a set at its first
// delegation of each epoch on the least-occupied delegate and moves it,
// whole, to a much less occupied one when its owner backs up and the set
// is quiescent (every operation previously delegated to it has finished
// executing); a one-delegate pool never steals. The trigger is two fixed
// constants (WithStealing states them, internal/core/config.go why), and
// internal/core/owners.go has the quiescent handoff and why it preserves
// order. Only placement (which delegate runs a set),
// never order (which operations run and in what sequence per set),
// responds to load. Under Recursive only leaf sets move: a set whose
// operations delegated this epoch stays on its owner. Checked mode panics
// on any second producer context for a set in an epoch, under either
// placement, however quiescent the set. Stats reports Steals.
//
// The program context works while it waits. At a barrier (EndIsolation,
// Sleep, RunParallel, Terminate) that has been open for 50µs it asks the
// most occupied delegate for work, and that delegate hands it whole sets'
// remaining operations, in order, which it runs as context 0 until the
// barrier closes (delegate.go, "Helping"). Order holds as it does under
// stealing: the unit is the whole set, moved at an operation boundary. A
// reclaim (Writable.Call, SyncSet) and the wait for room on a full program
// lane only park, and under Recursive no barrier helps. So an operation
// runs on its set's owner — the context ContextFor and Delegate name — or,
// during a barrier, on context 0. Stats reports HelpedOps and Sheds.
//
// # Recursive delegation
//
// Recursive() permits the extension the paper names as future work (§4):
// delegated operations may delegate further operations via Ctx.Delegate,
// which is how divide-and-conquer programs (quicksort, FPM, Barnes-Hut)
// are expressed without fork/join scaffolding. It is a permission, not a
// second engine: it widens every delegate's lane set from one lane to one
// per context (D x (D+1) rings), makes a reclaim the quiescence barrier,
// and composes with either placement.
//
// Per-set program order is preserved per producer — FIFO through ring and
// spill alike — and determinism requires each set to have one producer
// context per isolation epoch, which Checked() enforces under either
// placement. The engine keeps that rule itself: stealing moves only leaf
// sets, so a nested set's producer is fixed for the epoch. Under
// WithStealing a nested set must also receive its delegations from the
// operations of one producing set (owners.go has why). Stats reports
// RecursiveOps (messages through the lanes, all producers) and Spills
// alongside the drain counters.
//
// # Measuring
//
// bash bench/run.sh is the ledger and the only performance gate: five
// workloads end to end against the bounds in BENCHMARK.json, per-layer
// rows with --workload W --trace 1. What CI enforces of the hot path is
// the exact 0 allocs/op tests. The Benchmark* functions are a developer's
// probe, read with go test -bench and benchstat:
//
//   - Fig 4 and Fig 5a on this host: the traced apps-m rows
//     apps.<app>.speedup, apps.hmean_speedup, apps.<app>.isolation_share.
//   - Fig 5b, Fig 6 and the placement / queue-capacity / kmeans ablations:
//     go test -run=NONE -bench 'Fig5b|Fig6|Ablation' .
//   - Delegation cost: BenchmarkDelegateOverhead, BenchmarkRecursiveOverhead,
//     BenchmarkSPSC, BenchmarkLane.
//   - Stealing under skew: BenchmarkRecursiveSkewed,
//     BenchmarkCoreDelegateSkewed.
//   - Per-context utilisation of one program: cmd/sstrace. WithTrace
//     records every executed operation on whichever context runs it, pool
//     tasks as set NoSet; delegation itself is the untraced path.
//
// # Fault containment
//
// A panic in a delegated operation does not kill the process and does not
// wedge a barrier, whichever context runs it: a delegate, or the program
// context executing a set it took over in a barrier (only Sequential()
// lets a panic propagate, as a debugger wants). The runtime recovers it,
// records it with the stack of the original failure site, and counts the
// faulted operation as executed, so every barrier still closes
// (internal/core/fault.go has the execution spans that do this).
//
// Determinism is preserved by set poisoning. The faulting operation's
// serialization set is poisoned for the remainder of the isolation epoch:
// every subsequent delegation to it is dropped-but-counted, so the set
// executes exactly its program-order prefix up to the faulting operation
// and nothing after — the same prefix on every run, because per-set
// program order is the model's invariant. Poisoned sets are never stolen
// or handed to the program context. Dropped operations never run at all —
// a fault mid-set also deterministically truncates the nested delegations
// its dropped successors would have issued. Poisoning clears at the next
// BeginIsolation.
//
// Faults surface as values, not crashes: Runtime.Err is the report, the
// errors.Join of one *PanicError per retained fault (set, context, epoch,
// recovered value and original stack), through which errors.Is and
// errors.As reach a panic value that was an error. The most recent 1024
// (core.DefaultFaultRecordBound) are retained, so contained panics cannot
// pin their stacks forever; Stats.DroppedFaults counts evictions. Checked
// mode fails fast instead: a delegation to a poisoned set panics at the
// delegation site with the original stack. Stats reports Panics,
// PoisonedSets, and DroppedOps; tracing emits a TracePanic event per
// contained fault. The fault-free cost is one nil pointer load on the
// delegation path and one per drain run, and the alloc gates pin the armed
// hot path at 0 allocs/op.
//
// One discipline falls on user code: an operation that spin-waits on the
// side effects of operations in OTHER sets can hang if those operations
// are dropped by poisoning — synchronize through the runtime (epoch
// barriers, SyncSet), which containment guarantees still close, rather
// than through ad-hoc waits on delegated effects. The watchdog
// (Config.Watchdog; on by default under Checked) watches every wait of the
// program context and turns any such hang, or an engine liveness bug, into
// a panic with a dump of what the program context waits for, per-delegate
// pending lanes and ledger positions; Config.Watchdog has the sizing rule.
// The chaos-injection harness (internal/chaos) drives all of this under
// test: deterministic and seeded-probabilistic panics injected across
// every configuration, asserting survival, byte-identical poisoning points,
// and untouched sibling sets.
//
// # Serving tier
//
// internal/serve puts the model in front of HTTP traffic: each request's
// key hashes to a serialization set (StringSet) and its handler is
// delegated to that set, so requests for one key run in arrival order on
// one delegate at a time while different keys run across the pool. It
// contains its handlers' panics itself: a request tier must answer the
// requests queued behind a fault, so the delegated operation recovers,
// poisons the key on its session for the epoch, and every later request
// for the key answers 500 with the fault instead of being dropped. Its
// package comment describes the design, durability.go the durable
// sessions, and cmd/ssserve/README.md running it and the load and crash
// drills.
package prometheus
