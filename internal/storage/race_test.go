//go:build race

package storage

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
