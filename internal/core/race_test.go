//go:build race

package core

// raceEnabled: the race detector changes allocation counts.
const raceEnabled = true
