package core

import (
	"math/rand"
	"os"
	"testing"
	"time"
)

func soakBudget(t *testing.T, env string) time.Duration {
	budget := 2 * time.Second
	if v := os.Getenv(env); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("%s=%q: %v", env, v, err)
		}
		budget = d
	} else if testing.Short() {
		budget = 300 * time.Millisecond
	}
	return budget
}

// corruptionSoak keeps flipping random bits (sometimes several at once)
// anywhere in the fixture's committed index image for a bounded wall-clock
// budget, reopening, and holds the usual contract — fail or answer exactly,
// and always detect damage to checksummed bytes. A draw that lands in the
// committed checksum map's own bytes is applied whole, other flips included,
// and held to what a dropped map promises instead (runMapDamaged): the map
// plus a checksummed byte is a pair the format does not detect, and in a
// 20 KiB image the seeds draw it inside the tier-1 budget.
func corruptionSoak(t *testing.T, cf *corruptionFixture, budget time.Duration, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	deadline := time.Now().Add(budget)
	iters, degradedTotal := 0, 0
	for time.Now().Before(deadline) {
		iters++
		cf.restore(t)
		flips := 1 + rng.Intn(3)
		anyCommitted, mapHit := false, false
		var firstOff int64
		for f := 0; f < flips; f++ {
			off := rng.Int63n(int64(len(cf.snapshot)))
			if f == 0 {
				firstOff = off
			}
			if cf.committed[off] {
				anyCommitted = true
			}
			mapHit = mapHit || cf.mapBytes[off]
			cf.flip(t, off, uint(rng.Intn(8)))
		}
		if mapHit {
			cf.runMapDamaged(t, firstOff)
			continue
		}
		detected := cf.runOnce(t, firstOff, &degradedTotal)
		if anyCommitted && !detected {
			t.Fatalf("soak iter %d (%d flips): corruption of a checksummed byte was not detected", iters, flips)
		}
	}
	cf.restore(t)
	t.Logf("corruption soak: %d iterations in %v, %d degraded segment reads", iters, budget, degradedTotal)
	if iters < 3 {
		t.Fatalf("soak budget %v only allowed %d iterations", budget, iters)
	}
}

// TestCorruptionSoak is the randomized companion to the deterministic
// torture sweep over a codec-0 image. The budget defaults to ~2s so the
// tier-1 run stays fast; nightly CI sets IVA_CORRUPTION_SOAK (a Go
// duration) to run it for minutes under -race.
func TestCorruptionSoak(t *testing.T) {
	corruptionSoak(t, buildCorruptionFixture(t), soakBudget(t, "IVA_CORRUPTION_SOAK"), 0x50a4_c0de)
}

// TestCodecCorruptionSoak repeats the randomized soak over an image whose
// text list is stored as packed blocks, so random flips land in block
// headers, delta payloads and the raw tail as well as the structures the
// codec-0 soak covers. Nightly CI sets IVA_CODEC_SOAK.
func TestCodecCorruptionSoak(t *testing.T) {
	cf := buildCorruptionFixtureWith(t, Options{CheckpointEvery: 16, Codec: 1}, true, 160)
	if cf.packedAttrs == 0 {
		t.Fatal("codec soak fixture packed no attribute")
	}
	corruptionSoak(t, cf, soakBudget(t, "IVA_CODEC_SOAK"), 0x50a4_c0d6)
}
