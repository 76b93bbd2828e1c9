//go:build race

package invidx

// raceEnabled: the race detector changes allocation counts (sync.Pool drops
// items at random under it).
const raceEnabled = true
