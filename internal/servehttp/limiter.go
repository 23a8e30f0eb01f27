package servehttp

// limiter.go is the HTTP front's per-client admission control, split out of
// the node core's overload layer: the core sheds by queue occupancy
// (serve.ErrShed), while this token bucket refuses abusive *clients* before
// their bytes are even decoded. It consumes the core's retry-hint cap so
// 429 hints and 503 hints stay on one scale.

import (
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxRateClients bounds the per-client bucket map so a client-id-spinning
// attacker cannot grow it without limit; beyond it the stalest bucket is
// evicted (a full bucket, by refill, so eviction never forgives debt that
// matters).
const maxRateClients = 4096

// maxRetryAfterSeconds caps a rate-limit 429's Retry-After hint.
const maxRetryAfterSeconds = 10

// clientLimiter is the HTTP front's per-client token-bucket rate limiter.
// Each ingest frame costs one token; buckets refill at rate tokens/s up to
// a burst of 2*rate (at least one token). The enforcement point is REQUEST
// START: a client whose bucket cannot pay at least one token is refused
// atomically (429, nothing applied), which is what keeps retries safe. Mid-batch, an empty bucket
// sheds heartbeats and lets every other frame run the bucket negative — the
// debt is settled at the next request-start check, never by rejecting a
// half-applied batch.
type clientLimiter struct {
	rate  float64 // tokens (frames) per second
	burst float64

	mu      sync.Mutex
	buckets map[string]*tokenBucket

	rejected atomic.Uint64 // whole requests refused at admission
	shedHB   atomic.Uint64 // heartbeat frames shed at empty buckets

	now func() time.Time // injectable clock for tests
}

type tokenBucket struct {
	tokens float64
	last   time.Time
}

func newClientLimiter(rate float64) *clientLimiter {
	b := 2 * rate
	if b < 1 {
		// A burst below one token could never admit a single frame.
		b = 1
	}
	return &clientLimiter{rate: rate, burst: b, buckets: make(map[string]*tokenBucket), now: time.Now}
}

// bucketLocked fetches (or creates) a client's bucket and refills it to the
// current instant. Caller holds l.mu.
func (l *clientLimiter) bucketLocked(client string) *tokenBucket {
	now := l.now()
	b, ok := l.buckets[client]
	if !ok {
		if len(l.buckets) >= maxRateClients {
			l.evictLocked()
		}
		b = &tokenBucket{tokens: l.burst, last: now}
		l.buckets[client] = b
		return b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	return b
}

// evictLocked drops the least-recently-touched bucket.
func (l *clientLimiter) evictLocked() {
	var oldest string
	var oldestAt time.Time
	first := true
	for c, b := range l.buckets {
		if first || b.last.Before(oldestAt) {
			oldest, oldestAt, first = c, b.last, false
		}
	}
	delete(l.buckets, oldest)
}

// admit is the request-start gate: ok when the client's bucket holds at
// least one token. When refused, retryAfter is the whole seconds (at least
// 1, at most maxRetryAfterSeconds) until the bucket — debt included —
// refills to one token.
func (l *clientLimiter) admit(client string) (retryAfter int, ok bool) {
	l.mu.Lock()
	b := l.bucketLocked(client)
	if b.tokens >= 1 {
		l.mu.Unlock()
		return 0, true
	}
	deficit := 1 - b.tokens
	l.mu.Unlock()
	l.rejected.Add(1)
	wait := int(deficit/l.rate + 0.999)
	if wait < 1 {
		wait = 1
	}
	if wait > maxRetryAfterSeconds {
		wait = maxRetryAfterSeconds
	}
	return wait, false
}

// charge pays one token for a frame of an already-admitted request. When the
// bucket is empty, sheddable frames (heartbeats) are refused — the caller
// records them shed — and everything else applies anyway, driving the bucket
// negative.
func (l *clientLimiter) charge(client string, sheddable bool) bool {
	l.mu.Lock()
	b := l.bucketLocked(client)
	if sheddable && b.tokens < 1 {
		l.mu.Unlock()
		l.shedHB.Add(1)
		return false
	}
	b.tokens--
	l.mu.Unlock()
	return true
}

// clientID identifies the rate-limit principal of a request: the
// X-Nurd-Client header when the pipeline names itself (length-capped so the
// header cannot spin the bucket map), else the remote host.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Nurd-Client"); c != "" {
		if len(c) > 64 {
			c = c[:64]
		}
		return c
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}
