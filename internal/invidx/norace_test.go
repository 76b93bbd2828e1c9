//go:build !race

package invidx

const raceEnabled = false
