package storage

import (
	"math/rand"
	"time"
)

// Backoff is a capped exponential backoff with full jitter: the delay before
// retry k is uniform in [0, min(Base<<k, Max)]. The replication follower's
// poll loop paces its retries with it.
type Backoff struct {
	// Base is the jitter ceiling of the first retry; Max caps the ceiling's
	// exponential growth.
	Base time.Duration
	Max  time.Duration
	// Rand draws the jitter, uniform in [0, n); nil uses math/rand. A test
	// seam, so the schedule can be asserted without sleeping.
	Rand func(n int64) int64
}

// Delay returns the jittered sleep before retry `attempt` (0-based: the
// delay between the first failure and the second try is Delay(0)).
func (b Backoff) Delay(attempt int) time.Duration {
	if b.Base <= 0 {
		return 0
	}
	ceil := b.Base
	for i := 0; i < attempt; i++ {
		ceil <<= 1
		if ceil >= b.Max && b.Max > 0 {
			ceil = b.Max
			break
		}
	}
	if b.Max > 0 && ceil > b.Max {
		ceil = b.Max
	}
	draw := b.Rand
	if draw == nil {
		draw = rand.Int63n
	}
	return time.Duration(draw(int64(ceil) + 1))
}
