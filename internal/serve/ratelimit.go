package serve

import (
	"sync"
	"time"
)

// limiter is the per-set token-bucket rate limiter: each serialization
// set (request key) owns an independent bucket, so one hot key exhausts
// its own budget without starving siblings — the rate-limit analogue of
// the tier's per-key serialization. Buckets refill lazily on access
// (no background goroutine) and live in a lock-sharded map: the request
// path takes exactly one shard mutex, and keys only collide on a shard
// lock, never on a bucket.
//
// Bucket lifetime is bounded by the idle sweep: a long-lived server sees
// unbounded key cardinality (session ids churn forever), and a map that
// only grows is a slow memory leak. Every epoch rotation calls sweep; a bucket idle long enough to have refilled to capacity is
// indistinguishable from a fresh one — a new key starts with a full
// bucket — so evicting exactly those buckets is semantically free: no
// request is admitted or rejected differently than if the bucket had been
// kept.
type limiter struct {
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	shards [limiterShards]limiterShard
}

const limiterShards = 16

// rateBurst is the serving tier's bucket capacity: a key may spend this
// many requests at once before Config.Rate paces it.
const rateBurst = 10

type limiterShard struct {
	mu      sync.Mutex
	buckets map[uint64]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

func newLimiter(rate, burst float64) *limiter {
	l := &limiter{rate: rate, burst: burst}
	for i := range l.shards {
		l.shards[i].buckets = make(map[uint64]*bucket)
	}
	return l
}

// allow consumes one token from set's bucket, reporting whether the
// request may proceed. A new key starts with a full bucket.
func (l *limiter) allow(set uint64) bool {
	sh := &l.shards[set%limiterShards]
	now := time.Now()
	sh.mu.Lock()
	b := sh.buckets[set]
	if b == nil {
		b = &bucket{tokens: l.burst, last: now}
		sh.buckets[set] = b
	} else {
		b.tokens += now.Sub(b.last).Seconds() * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
		b.last = now
	}
	ok := b.tokens >= 1
	if ok {
		b.tokens--
	}
	sh.mu.Unlock()
	return ok
}

// sweep evicts every bucket that has been idle long enough to refill to
// capacity — (now - last) * rate >= burst — and returns the eviction
// count. Recreating such a bucket on the key's next request yields the
// exact same admission decisions as having kept it, so the sweep changes
// no rate-limiting behavior; it only bounds the map under unbounded key
// cardinality. Called at epoch rotations: O(live buckets),
// off the request path, one shard locked at a time.
func (l *limiter) sweep(now time.Time) int {
	evicted := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		for set, b := range sh.buckets {
			if now.Sub(b.last).Seconds()*l.rate >= l.burst {
				delete(sh.buckets, set)
				evicted++
			}
		}
		sh.mu.Unlock()
	}
	return evicted
}

// size reports the live bucket count across all shards (the /metrics
// gauge proving the sweep bounds the map).
func (l *limiter) size() int {
	n := 0
	for i := range l.shards {
		sh := &l.shards[i]
		sh.mu.Lock()
		n += len(sh.buckets)
		sh.mu.Unlock()
	}
	return n
}
