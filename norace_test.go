//go:build !race

package iva

const raceEnabled = false
