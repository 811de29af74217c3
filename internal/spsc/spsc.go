// Package spsc implements the lock-free single-producer single-consumer
// queues the Prometheus runtime uses between a producer context and a
// delegate context, in the spirit of FastForward (Giacomoni et al., PPoPP
// 2008): the producer→delegate handoff should cost no more than the cache
// transfers of the data itself. The runtime's communication lanes are Lane
// (lane.go), which shares the slot machinery described here; Queue, the
// self-contained blocking form, has no caller in the runtime any more.
//
// Queue is a bounded ring of sequence-stamped value slots (a Vyukov-style
// ring specialized to one producer and one consumer). Each slot carries a
// lap stamp next to the value, where lap(p) = p/capacity:
//
//   - a slot is free for position p when seq == 2*lap(p) (even stamps mean
//     free — and the zero value is "free for lap 0", so a new ring needs no
//     initialization pass and its pages fault in on first use, keeping
//     runtime construction O(1) in touched memory);
//   - writing stamps it seq = 2*lap(p)+1 (odd: readable);
//   - popping re-stamps it seq = 2*(lap(p)+1), freeing it for the next lap.
//
// As in FastForward, the producer and consumer never read each other's
// cursor on the hot path — full/empty detection comes from the slot stamps,
// which travel on the same cache line as the value, so steady-state
// communication is one cache-line transfer per operation. Carrying values
// (rather than pointers) means the runtime's invocation records are written
// directly into the ring: no per-operation heap allocation, no GC pressure,
// and no nil-as-empty restriction.
//
// The queue additionally publishes cache-line-padded monotonic pushed/popped
// counters, giving O(1) Len and Empty that are safe to call from any
// goroutine.
//
// PushBatch writes a batch of values with a single wake signal at the end,
// amortizing the producer→consumer signaling across the batch. PopBatch is
// its consumer-side mirror: it removes a run of readable slots with a single
// popped-counter publish and a single producer wake at the end, so a
// consumer draining a backlog pays the shared-line stores once per run
// rather than once per operation.
//
// Blocking behaviour is hybrid: callers spin for a bounded number of
// iterations (the analogue of the paper's PAUSE-instruction spin loop) and
// then park on a channel so an idle delegate does not burn a hardware
// context. Parking and waking are coordinated with a small state machine in
// sleepState.
package spsc

import (
	"runtime"
	"sync/atomic"
)

// cacheLineSize is the assumed size of a CPU cache line, used to pad the
// producer- and consumer-owned fields apart so they never share a line.
const cacheLineSize = 64

// DefaultCapacity is the queue capacity used when NewQueue is given a
// non-positive capacity. FastForward queues want enough buffering to absorb
// bursts of operations mapped to the same serialization set (paper §4);
// 256 invocation-sized slots (16KB per ring; without stealing the
// runtime's program lane is sixteen rings, every other lane one) absorbs
// deep bursts while keeping runtime construction cheap — the slots are
// values now, so ring memory is capacity×64B rather than capacity×8B, and
// a saturated producer is throttled by the consumer's drain rate, not by
// extra ring depth.
const DefaultCapacity = 256

// spinBeforePark bounds the busy-wait loop before a blocked caller parks on
// a channel. The value trades latency (higher = faster handoff under load)
// against wasted CPU when the peer is slow.
const spinBeforePark = 256

type pad [cacheLineSize]byte

// sleepState values for the parking protocol.
const (
	awake    int32 = iota // peer is running (or about to re-check)
	sleeping              // peer is parked on its wake channel
)

// slot pairs a value with its sequence stamp. The stamp shares the value's
// cache line, so the consumer's readability check rides the same transfer
// that delivers the data.
type slot[T any] struct {
	seq atomic.Uint64
	val T
}

// Queue is a bounded lock-free SPSC queue of T values. The runtime no longer
// uses it; it stays declared because bench/ (frozen by the benchmark rules)
// measures it. The zero value is not usable; construct with NewQueue. Exactly one goroutine may call the
// producer methods (Push, TryPush, PushBatch, Close) and exactly one may
// call the consumer methods (Pop, TryPop, PopBatch). Len, Empty, Cap and
// Closed are safe from any goroutine.
type Queue[T any] struct {
	slots []slot[T]
	mask  uint64
	shift uint // log2(capacity), for lap computation

	_    pad
	head uint64 // consumer cursor: next slot to read (consumer-private)
	// popped publishes the consumer's progress for O(1) Len/Empty.
	popped atomic.Uint64
	// consumerSleep is set by the consumer before parking on wakeConsumer.
	consumerSleep atomic.Int32
	wakeConsumer  chan struct{}

	_    pad
	tail uint64 // producer cursor: next slot to write (producer-private)
	// pushed publishes the producer's progress for O(1) Len/Empty.
	pushed atomic.Uint64
	// producerSleep is set by the producer before parking on wakeProducer.
	producerSleep atomic.Int32
	wakeProducer  chan struct{}

	_      pad
	closed atomic.Bool
}

// NewQueue returns a queue with capacity rounded up to a power of two.
func NewQueue[T any](capacity int) *Queue[T] {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	c := 1
	shift := uint(0)
	for c < capacity {
		c <<= 1
		shift++
	}
	return &Queue[T]{
		slots:        make([]slot[T], c),
		mask:         uint64(c - 1),
		shift:        shift,
		wakeConsumer: make(chan struct{}, 1),
		wakeProducer: make(chan struct{}, 1),
	}
}

// freeStamp and fullStamp are the expected slot stamps for position p: a
// slot is writable when it carries freeStamp(p) and readable when it
// carries fullStamp(p). Odd stamps always mean "written", so the encodings
// never collide across laps (capacity 1 included).
func (q *Queue[T]) freeStamp(p uint64) uint64 { return (p >> q.shift) << 1 }
func (q *Queue[T]) fullStamp(p uint64) uint64 { return (p>>q.shift)<<1 | 1 }

// Cap returns the queue capacity.
func (q *Queue[T]) Cap() int { return len(q.slots) }

// tryPushQuiet inserts v without signaling the consumer or publishing the
// pushed counter. Callers must follow up with publishPush (and a consumer
// signal) before returning control to the program.
func (q *Queue[T]) tryPushQuiet(v T) bool {
	s := &q.slots[q.tail&q.mask]
	if s.seq.Load() != q.freeStamp(q.tail) {
		return false // full: consumer has not freed this slot yet
	}
	s.val = v
	s.seq.Store(q.fullStamp(q.tail))
	q.tail++
	return true
}

// publishPush makes the producer's progress visible to Len/Empty readers.
func (q *Queue[T]) publishPush() { q.pushed.Store(q.tail) }

// TryPush inserts v without blocking. It reports false if the queue is full.
func (q *Queue[T]) TryPush(v T) bool {
	if !q.tryPushQuiet(v) {
		return false
	}
	q.publishPush()
	q.signalConsumer()
	return true
}

// Push inserts v, blocking while the queue is full. Push panics if the queue
// has been closed (the runtime never pushes after termination).
func (q *Queue[T]) Push(v T) {
	for spin := 0; ; {
		if q.TryPush(v) {
			return
		}
		if q.closed.Load() {
			panic("spsc: Push on closed queue")
		}
		spin++
		if spin < spinBeforePark {
			if spin%16 == 0 {
				runtime.Gosched()
			}
			continue
		}
		// Park until the consumer frees a slot. Re-check after arming the
		// sleep flag to avoid a lost wakeup.
		q.producerSleep.Store(sleeping)
		if q.slots[q.tail&q.mask].seq.Load() == q.freeStamp(q.tail) || q.closed.Load() {
			q.producerSleep.Store(awake)
			continue
		}
		<-q.wakeProducer
		q.producerSleep.Store(awake)
		spin = 0
	}
}

// PushBatch inserts every value of vs in order, blocking while the queue is
// full, and wakes the consumer once at the end instead of once per value.
// The pushed counter is published once per batch (or before any blocking
// fallback), so a large batch costs two shared-line stores total in the
// common case.
func (q *Queue[T]) PushBatch(vs []T) {
	for i := range vs {
		if !q.tryPushQuiet(vs[i]) {
			// Ring full mid-batch: publish what we have, wake the consumer,
			// and fall back to the blocking per-value path.
			q.publishPush()
			q.signalConsumer()
			q.Push(vs[i])
			continue
		}
	}
	q.publishPush()
	q.signalConsumer()
}

// PopBatch removes up to len(dst) values into dst without blocking and
// returns how many were transferred (0 when the queue is empty or dst is).
// It is the consumer-side mirror of PushBatch: values are copied out first,
// the popped counter is published once for the whole run, and only then are
// the slots re-stamped free and the producer woken once — so a run of n pops
// costs two shared-line stores instead of 2n, and an external Len reader can
// never observe pushed-popped exceeding the capacity (slots become writable
// only after the pop is published). Consumer method.
func (q *Queue[T]) PopBatch(dst []T) int {
	var zero T
	n := 0
	for n < len(dst) {
		p := q.head + uint64(n)
		s := &q.slots[p&q.mask]
		if s.seq.Load() != q.fullStamp(p) {
			break
		}
		dst[n] = s.val
		s.val = zero // drop references for GC before the slot is freed
		n++
	}
	if n == 0 {
		return 0
	}
	start := q.head
	q.head += uint64(n)
	q.popped.Store(q.head)
	for i := 0; i < n; i++ {
		p := start + uint64(i)
		// Same next-lap free stamp TryPop writes: lap(p)+1, encoded as the
		// free stamp of position p+capacity.
		q.slots[p&q.mask].seq.Store(q.freeStamp(p + uint64(len(q.slots))))
	}
	q.signalProducer()
	return n
}

// TryPop removes and returns the next value without blocking. The second
// result is false if the queue is empty.
func (q *Queue[T]) TryPop() (T, bool) {
	var zero T
	s := &q.slots[q.head&q.mask]
	if s.seq.Load() != q.fullStamp(q.head) {
		return zero, false
	}
	v := s.val
	s.val = zero // drop references for GC
	// Publish the pop before freeing the slot: once the slot is free the
	// producer may refill it and publish a new push, and an external Len
	// reader must never compute pushed-popped > Cap.
	q.head++
	q.popped.Store(q.head)
	s.seq.Store(q.freeStamp(q.head - 1 + uint64(len(q.slots))))
	q.signalProducer()
	return v, true
}

// Pop removes and returns the next value, blocking while the queue is empty.
// It returns ok=false only after Close has been called and the queue is
// drained.
func (q *Queue[T]) Pop() (T, bool) {
	for spin := 0; ; {
		if v, ok := q.TryPop(); ok {
			return v, true
		}
		if q.closed.Load() {
			// Check once more: Close may have raced with a final Push.
			if v, ok := q.TryPop(); ok {
				return v, true
			}
			var zero T
			return zero, false
		}
		spin++
		if spin < spinBeforePark {
			if spin%16 == 0 {
				runtime.Gosched()
			}
			continue
		}
		q.consumerSleep.Store(sleeping)
		if q.slots[q.head&q.mask].seq.Load() == q.fullStamp(q.head) || q.closed.Load() {
			q.consumerSleep.Store(awake)
			continue
		}
		<-q.wakeConsumer
		q.consumerSleep.Store(awake)
		spin = 0
	}
}

// Close marks the queue closed. The consumer drains remaining items and then
// receives ok=false from Pop. Only the producer may call Close.
func (q *Queue[T]) Close() {
	q.closed.Store(true)
	q.signalConsumer()
	q.signalProducer()
}

// Closed reports whether Close has been called.
func (q *Queue[T]) Closed() bool { return q.closed.Load() }

// Empty reports whether the queue is empty. O(1); safe from any goroutine.
func (q *Queue[T]) Empty() bool { return q.Len() == 0 }

// Len returns the number of buffered items in O(1) from the published
// pushed/popped counters; safe from any goroutine. It is exact when called
// by the producer or the consumer while the other side is quiescent, and
// within one in-flight operation otherwise (the counters are published
// after the slot transfer they describe).
func (q *Queue[T]) Len() int {
	p, c := q.pushed.Load(), q.popped.Load()
	if p < c {
		// Transient skew: the consumer published a pop whose push the
		// producer has batched but not yet published.
		return 0
	}
	return int(p - c)
}

func (q *Queue[T]) signalConsumer() {
	if q.consumerSleep.Load() == sleeping {
		select {
		case q.wakeConsumer <- struct{}{}:
		default:
		}
	}
}

func (q *Queue[T]) signalProducer() {
	if q.producerSleep.Load() == sleeping {
		select {
		case q.wakeProducer <- struct{}{}:
		default:
		}
	}
}
